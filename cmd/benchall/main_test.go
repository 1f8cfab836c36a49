package main

import (
	"strings"
	"testing"

	"subtraj/internal/experiments"
)

func TestSelectJobs(t *testing.T) {
	all := suite(experiments.Quick())
	if len(all) != 14 {
		t.Fatalf("suite has %d experiments, want the paper's 14", len(all))
	}
	for _, tc := range []struct {
		only string
		want []string
		bad  string // non-empty: want an error that quotes this id
	}{
		{only: "", want: ids(all)},
		{only: "  ", want: ids(all)},
		{only: "tab4,fig6", want: []string{"fig6", "tab4"}}, // suite order, not flag order
		{only: " fig6 ,\ttab4 ", want: []string{"fig6", "tab4"}},
		{only: "fig66", bad: `"fig66"`},
		{only: "fig6,tab44", bad: `"tab44"`},
		{only: "fig6,", bad: `""`},
	} {
		got, err := selectJobs(all, tc.only)
		if tc.bad != "" {
			if err == nil {
				t.Errorf("-only %q: selected %v, want an error", tc.only, ids(got))
				continue
			}
			for _, part := range []string{tc.bad, strings.Join(ids(all), ", ")} {
				if !strings.Contains(err.Error(), part) {
					t.Errorf("-only %q: error %q does not mention %s", tc.only, err, part)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("-only %q: %v", tc.only, err)
			continue
		}
		if g, w := strings.Join(ids(got), ","), strings.Join(tc.want, ","); g != w {
			t.Errorf("-only %q selected %s, want %s", tc.only, g, w)
		}
	}
}

func ids(jobs []job) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.id
	}
	return out
}
