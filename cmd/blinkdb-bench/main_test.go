package main

import (
	"strings"
	"testing"

	"blinkdb/internal/experiments"
)

func TestSelectExperiments(t *testing.T) {
	var all []string
	for _, e := range experiments.All() {
		all = append(all, e.Name)
	}
	tests := []struct {
		run     string
		want    []string
		wantErr string // substring of the error; "" means none
	}{
		{run: "", want: all},
		{run: "6c", want: []string{"6c"}},
		{run: "abl-affinity, 6c", want: []string{"6c", "abl-affinity"}}, // paper order, spaces trimmed
		{run: "abl-delta", wantErr: `"abl-delta"`},
		{run: "6c,6c", want: []string{"6c"}},
		{run: "6x", wantErr: `"6x"`},
		{run: "6c,nosuch", wantErr: `"nosuch"`},
		{run: "none", wantErr: `"none"`},
		{run: "6c,", wantErr: `""`},
	}
	for _, tc := range tests {
		got, err := selectExperiments(tc.run)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("selectExperiments(%q): error %v, want one naming %s", tc.run, err, tc.wantErr)
			}
			if got != nil {
				t.Errorf("selectExperiments(%q): returned %d experiments beside an error", tc.run, len(got))
			}
			continue
		}
		if err != nil {
			t.Errorf("selectExperiments(%q): %v", tc.run, err)
			continue
		}
		var names []string
		for _, e := range got {
			names = append(names, e.Name)
		}
		if strings.Join(names, ",") != strings.Join(tc.want, ",") {
			t.Errorf("selectExperiments(%q) = %v, want %v", tc.run, names, tc.want)
		}
	}
}
