package tilt

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseLevels decodes the command-line tilt chain syntax shared by streamd
// -tilt and regcube replay -tilt. "" is nil levels, which the stream engine
// reads as its one-level default chain (unit:1:64); "calendar" is the
// paper's quarter/hour/day/month chain (each engine unit plays the
// quarter); "log<N>x<S>" is N doubling-coverage levels of S slots each;
// anything else is an explicit "name:multiple:slots,..." chain, finest
// level first (its multiple is implied 1 — one engine unit). An explicit
// chain NewUnitFrame would refuse, and a log chain whose coarsest level
// would span more than an int64 counts, are refused before anything is
// sized by them.
func ParseLevels(s string) ([]Level, error) {
	if s == "" {
		return nil, nil
	}
	if s == "calendar" {
		return CalendarLevels(), nil
	}
	var n, slots int
	if c, err := fmt.Sscanf(s, "log%dx%d", &n, &slots); c == 2 && err == nil {
		// Sscanf accepts signs and ignores trailing text; require an exact
		// round trip so log0x4, log-1x4, and log3x4junk all fail loudly
		// instead of panicking or silently falling back to the default.
		if n < 1 || slots < 1 || fmt.Sprintf("log%dx%d", n, slots) != s {
			return nil, fmt.Errorf("%q: want log<levels>x<slots> with both ≥ 1", s)
		}
		// Level i spans 2^i units: past 63 levels the coarsest overflows.
		if n > 63 {
			return nil, fmt.Errorf("%q: %d doubling levels, at most 63", s, n)
		}
		return LogarithmicLevels(n, 1, slots), nil
	}
	var levels []Level
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("level %q: want name:multiple:slots", part)
		}
		mult, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("level %q multiple: %w", part, err)
		}
		sl, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("level %q slots: %w", part, err)
		}
		levels = append(levels, Level{Name: fields[0], Multiple: mult, Slots: sl})
	}
	if err := checkChain(levels); err != nil {
		return nil, err
	}
	return levels, nil
}
