package tilt

import (
	"errors"
	"strconv"
	"testing"
)

func TestParseLevels(t *testing.T) {
	if levels, err := ParseLevels(""); err != nil || levels != nil {
		t.Fatalf("empty chain = %v, %v", levels, err)
	}
	cal, err := ParseLevels("calendar")
	if err != nil || len(cal) != 4 || cal[3].Name != "month" {
		t.Fatalf("calendar = %+v, %v", cal, err)
	}
	logs, err := ParseLevels("log5x8")
	if err != nil || len(logs) != 5 || logs[1].Multiple != 2 || logs[0].Slots != 8 {
		t.Fatalf("log5x8 = %+v, %v", logs, err)
	}
	custom, err := ParseLevels("q:1:4,h:4:24")
	if err != nil || len(custom) != 2 || custom[1].Name != "h" || custom[1].Multiple != 4 || custom[1].Slots != 24 {
		t.Fatalf("custom = %+v, %v", custom, err)
	}
	for _, bad := range []string{"q:1", "q:x:4", "q:1:y", "log-1x4", "log0x4", "log3x0", "log3x4junk"} {
		if _, err := ParseLevels(bad); err == nil {
			t.Fatalf("%q parsed silently", bad)
		}
	}
}

// TestChainsSpanAtMostInt64 refuses chains whose coarsest unit spans more
// finest units than an int64 counts, in ParseLevels before it sizes
// anything by the spec and in the chain check every frame runs; the
// largest chains that fit still parse. A multiple or slot count must also
// fit the platform's int: with 32 bits the largest chain of an int64 span
// is refused as out of range, and one at the int32 limit still parses.
func TestChainsSpanAtMostInt64(t *testing.T) {
	for _, spec := range []string{
		"log64x1",
		"log100000000x1",
		"log9223372036854775807x2",
		"a:1:10,b:10:1000000000,c:1000000000:1000000000,d:1000000000:1000000000",
		"a:1:3037000500,b:3037000500:3037000500,c:3037000500:1",
		"a:1:9223372036854775807,b:9223372036854775807:2,c:2:1",
		"a:1:2147483647,b:2147483647:2147483647,c:2147483647:2147483647,d:2147483647:1",
	} {
		if levels, err := ParseLevels(spec); err == nil {
			t.Errorf("%q parsed to %d levels", spec, len(levels))
		}
	}
	for _, spec := range []string{"log63x2", "a:1:2147483647,b:2147483647:2147483647,c:2147483647:1"} {
		if _, err := ParseLevels(spec); err != nil {
			t.Errorf("%q: %v", spec, err)
		}
	}
	largest := "a:1:3037000499,b:3037000499:3037000499,c:3037000499:1"
	if _, err := ParseLevels(largest); strconv.IntSize == 64 && err != nil {
		t.Errorf("%q: %v", largest, err)
	} else if strconv.IntSize == 32 && !errors.Is(err, strconv.ErrRange) {
		t.Errorf("%q with a 32-bit int: %v, want a range error", largest, err)
	}
	if _, err := NewUnitFrame(LogarithmicLevels(64, 1, 2)); !errors.Is(err, ErrConfig) {
		t.Fatalf("NewUnitFrame of a 64-level doubling chain: %v, want ErrConfig", err)
	}
	if _, err := NewUnitFrame(LogarithmicLevels(63, 1, 2)); err != nil {
		t.Fatal(err)
	}
}
