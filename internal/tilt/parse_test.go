package tilt

import "testing"

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
