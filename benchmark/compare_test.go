package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := e2eRow{Metric: "hf_iter_s", Better: "lower", Bound: 0.10, Median: 1.00, Min: 0.98, Max: 1.03}
	higher := e2eRow{Metric: "req_per_s", Better: "higher", Bound: 0.10, Median: 400, Min: 395, Max: 404}
	setup := e2eRow{Metric: "setup_s", Better: "lower", Bound: 0.25, Floor: 0.05, Median: 0.040, Min: 0.035, Max: 0.060}
	with := func(r e2eRow, med, lo, hi float64) e2eRow {
		r.Median, r.Min, r.Max = med, lo, hi
		return r
	}
	cases := []struct {
		name string
		a, b e2eRow
		want string
	}{
		{"same", lower, lower, verdictOK},
		{"slower within bound", lower, with(lower, 1.09, 1.07, 1.10), verdictOK},
		{"slower beyond bound", lower, with(lower, 1.11, 1.10, 1.12), verdictWorse},
		{"faster", lower, with(lower, 0.50, 0.49, 0.51), verdictOK},
		{"candidate spread wider than bound", lower, with(lower, 1.00, 0.90, 1.05), verdictUnresolved},
		{"baseline spread wider than bound", with(lower, 1.00, 0.90, 1.05), lower, verdictUnresolved},
		{"worse wins over a wide spread", lower, with(lower, 1.50, 1.00, 2.00), verdictWorse},
		{"higher is better: drop beyond bound", higher, with(higher, 350, 348, 352), verdictWorse},
		{"higher is better: rise", higher, with(higher, 500, 498, 502), verdictOK},
		{"set-up: big share, under the floor", setup, with(setup, 0.060, 0.055, 0.080), verdictOK},
		{"set-up: beyond share and floor", setup, with(setup, 0.120, 0.110, 0.130), verdictWorse},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFixtures(t *testing.T) {
	cases := []struct {
		b        string
		code     int
		verdicts map[string]string // "workload metric" → verdict on that line
	}{
		{"testdata/same.json", 0, map[string]string{
			"hf_serial_wide hf_iter_s": verdictOK, "serve_http_mix lat_p95_ms": verdictOK, "hf_serial_wide hf.cg_iters": verdictOK,
		}},
		{"testdata/regressed.json", 1, map[string]string{
			"hf_serial_wide hf_iter_s":   verdictWorse,
			"serve_http_mix req_per_s":   verdictWorse,
			"serve_http_mix lat_p95_ms":  verdictUnresolved,
			"hf_serial_wide final_loss":  verdictDiffers,
			"hf_serial_wide hf.cg_iters": verdictDiffers,
		}},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if code := compareFiles(&buf, "testdata/base.json", c.b); code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.b, code, c.code, buf.String())
		}
		for prefix, want := range c.verdicts {
			found := false
			for _, line := range strings.Split(buf.String(), "\n") {
				f := strings.Fields(line)
				if len(f) > 2 && f[0]+" "+f[1] == prefix && f[len(f)-1] == want {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: no line %q with verdict %s in\n%s", c.b, prefix, want, buf.String())
			}
		}
	}
}
