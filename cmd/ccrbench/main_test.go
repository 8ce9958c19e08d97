package main

import "testing"

// TestHostLine pins the host report of -check: the record's and the
// host's CPU strings side by side, with a mismatch marked.
func TestHostLine(t *testing.T) {
	for _, c := range []struct {
		record, host string
		want         string
	}{
		{"Intel(R) Xeon(R) Processor", "Intel(R) Xeon(R) Processor",
			`cpu: record "Intel(R) Xeon(R) Processor", host "Intel(R) Xeon(R) Processor" (same)`},
		{"Intel(R) Xeon(R) Processor", "AMD EPYC 7B13",
			`cpu: record "Intel(R) Xeon(R) Processor", host "AMD EPYC 7B13" (DIFFERENT: timings compare across hosts)`},
		{"", "AMD EPYC 7B13",
			`cpu: record "unknown", host "AMD EPYC 7B13" (DIFFERENT: timings compare across hosts)`},
	} {
		if got := hostLine(c.record, c.host); got != c.want {
			t.Errorf("hostLine(%q, %q) = %s, want %s", c.record, c.host, got, c.want)
		}
	}
}
