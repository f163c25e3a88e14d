package sweep

import "testing"

func TestParseShards(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want int
		ok   bool
	}{
		{"auto", -1, true},
		{"", -1, true},
		{"AUTO", -1, true},
		{"serial", 1, true},
		{"1", 1, true},
		{"4", 4, true},
		{" 8 ", 8, true},
		{"0", 0, false},
		{"-2", 0, false},
		{"many", 0, false},
	} {
		got, err := ParseShards(tc.spec)
		if tc.ok != (err == nil) || got != tc.want {
			t.Errorf("ParseShards(%q) = (%d, %v), want (%d, ok=%v)", tc.spec, got, err, tc.want, tc.ok)
		}
	}
}
