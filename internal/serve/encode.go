package serve

import (
	"fmt"
	"strconv"
	"strings"
)

// parseIntList parses "1,0,2" into ints.
func parseIntList(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("empty list")
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("element %d: %v", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// parseInt32List parses "1,0,2" into int32 members.
func parseInt32List(s string) ([]int32, error) {
	vs, err := parseIntList(s)
	if err != nil {
		return nil, err
	}
	out := make([]int32, len(vs))
	for i, v := range vs {
		if v < -1<<31 || v > 1<<31-1 {
			return nil, fmt.Errorf("element %d: %d overflows int32", i, v)
		}
		out[i] = int32(v)
	}
	return out, nil
}
