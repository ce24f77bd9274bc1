package core

import "testing"

func TestParseAllocator(t *testing.T) {
	cases := map[string]string{
		"minimax":        "MiniMax",
		"MINIMAX":        "MiniMax",
		"minimax-euclid": "MiniMax(euclid)",
		"ssp":            "SSP",
		"mst":            "MST",
		"DM/D":           "DM/D",
		"FX/R":           "FX/R",
		"HCAM/A":         "HCAM/A",
		"GDM/F":          "GDM/F",
	}
	for in, want := range cases {
		alg, err := ParseAllocator(in, 1, 0)
		if err != nil {
			t.Errorf("ParseAllocator(%q): %v", in, err)
			continue
		}
		if alg.Name() != want {
			t.Errorf("ParseAllocator(%q).Name() = %q, want %q", in, alg.Name(), want)
		}
	}
	for _, bad := range []string{"", "nope", "DM", "DM/Z", "XX/D", "DM/X/Y"} {
		if _, err := ParseAllocator(bad, 1, 0); err == nil {
			t.Errorf("ParseAllocator(%q) accepted", bad)
		}
	}
}
