package main

import (
	"math"
	"testing"
)

func TestCheckRange(t *testing.T) {
	for _, tc := range []struct {
		name           string
		min, max, step float64
		seeds          int
		ok             bool
	}{
		{"defaults", 0.05, 0.60, 0.05, 2, true},
		{"single rate", 0.1, 0.1, 0.05, 1, true},
		{"zero step", 0.05, 0.6, 0, 2, false},
		{"negative step", 0.05, 0.6, -0.05, 2, false},
		{"NaN step", 0.05, 0.6, math.NaN(), 2, false},
		{"zero seeds", 0.05, 0.6, 0.05, 0, false},
		{"negative seeds", 0.05, 0.6, 0.05, -1, false},
		{"min above max", 0.5, 0.2, 0.05, 2, false},
		{"zero min", 0, 0.6, 0.05, 2, false},
		{"negative min", -0.1, 0.6, 0.05, 2, false},
		{"infinite max", 0.05, math.Inf(1), 0.05, 2, false},
	} {
		err := checkRange(tc.min, tc.max, tc.step, tc.seeds)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkRange(%v, %v, %v, %d) = %v, want ok=%v",
				tc.name, tc.min, tc.max, tc.step, tc.seeds, err, tc.ok)
		}
	}
}
