package main

import (
	"os"
	"sort"
	"strings"
	"testing"
)

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()

	done := make(chan string)
	go func() {
		buf := make([]byte, 0, 1<<16)
		tmp := make([]byte, 4096)
		for {
			n, readErr := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if readErr != nil {
				break
			}
		}
		done <- string(buf)
	}()
	runErr := f()
	w.Close()
	out := <-done
	r.Close()
	return out, runErr
}

func TestRunStatsAndFigures(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-exp", "stats,fig2,fig9", "-scale", "tiny"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"#Users", "Fig. 2(a)", "singular values", "stats completed"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunTable1Tiny(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-exp", "table1,fig7,fig8,fig10,fig11,fig12,params", "-scale", "tiny", "-attr", "RT", "-rounds", "1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"UPCC", "AMF", "Improve.", // table1
		"Throughput (cut at 150 kbps):",                // fig7
		"RT |skewness|",                                // fig8
		"RT: share of errors within +/-0.5:\n  UIPCC ", // fig10
		"\nAMF(a=1) ",                                  // fig11
		"density=5%", "density=50%",                    // fig12
		"RT parameter sweeps", "\nrank ", "\nbeta ", // params
		"[params completed in",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunAblationTiny(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-exp", "ablation", "-scale", "tiny", "-attr", "RT", "-rounds", "1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\nabs-loss ", "\nfixed-w ", "\nAMF(a=1) ", "\nAMF ", "\nImprove. "} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing row %q", strings.TrimSpace(want))
		}
	}
}

func TestRunAdaptationTiny(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-exp", "adaptation", "-scale", "tiny"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"static", "predicted", "oracle"} {
		if !strings.Contains(out, want) {
			t.Errorf("adaptation output missing %q", want)
		}
	}
}

// TestRunRejectsBadFlags also holds every refusal to come before any
// experiment runs: a bad name late in -exp must not cost the ones before.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := map[string][]string{
		"bad scale":                 {"-scale", "galactic"},
		"bad attr":                  {"-attr", "JITTER"},
		"bad experiment":            {"-exp", "fig99", "-scale", "tiny"},
		"bad experiment after good": {"-exp", "table1,fig99", "-scale", "tiny", "-attr", "RT", "-rounds", "1"},
		"negative rounds":           {"-exp", "table1", "-rounds", "-1", "-scale", "tiny"},
		"zero rounds":               {"-exp", "params", "-rounds", "0", "-scale", "tiny"},
		"stray argument":            {"-exp", "fig2", "-scale", "tiny", "extra"},
	}
	for name, args := range cases {
		out, err := captureStdout(t, func() error { return run(args) })
		if err == nil {
			t.Errorf("%s: expected error", name)
		}
		if strings.Contains(out, "==") {
			t.Errorf("%s: an experiment ran before the refusal:\n%s", name, out)
		}
	}
}

func TestScaleConfigs(t *testing.T) {
	paper, err := scaleConfig("paper", 1)
	if err != nil {
		t.Fatal(err)
	}
	if paper.Users != 142 || paper.Services != 4500 || paper.Slices != 64 {
		t.Fatalf("paper scale = %+v", paper)
	}
	tiny, err := scaleConfig("tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Users >= paper.Users {
		t.Fatal("tiny should be smaller than paper")
	}
}

func TestParseAttrs(t *testing.T) {
	both, err := parseAttrs("both")
	if err != nil || len(both) != 2 {
		t.Fatalf("both = %v, %v", both, err)
	}
	rt, err := parseAttrs("rt")
	if err != nil || len(rt) != 1 {
		t.Fatalf("rt = %v, %v", rt, err)
	}
	if _, err := parseAttrs("xx"); err == nil {
		t.Fatal("bad attr should error")
	}
}

func TestRunExtensionExperiments(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-exp", "weights,floor,prequential,slices", "-scale", "tiny", "-attr", "RT"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"incumbent drift after churn",
		"oracle MRE",
		"prequential (test-then-train)",
		"per-slice MRE",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunFig14Tiny(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-exp", "fig14", "-scale", "tiny", "-attr", "RT"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "newcomer MRE") {
		t.Errorf("fig14 output missing summary:\n%s", out)
	}
}

// TestRunFig13SpeedupsSorted holds Fig. 13's speedup lines to one order,
// by baseline name, so that two runs at one seed print the same lines in
// the same order: they come from a map.
func TestRunFig13SpeedupsSorted(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-exp", "fig13", "-scale", "tiny", "-attr", "both"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, block := range strings.Split(out, "(seconds per slice):")[1:] {
		var names []string
		for _, line := range strings.Split(block, "\n") {
			if rest, ok := strings.CutPrefix(line, "AMF speedup over "); ok {
				name, _, _ := strings.Cut(rest, " ")
				names = append(names, name)
			}
		}
		if len(names) < 2 || !sort.StringsAreSorted(names) {
			t.Errorf("fig13 speedup lines name %v, want two or more in sorted order:\n%s", names, out)
		}
	}
}
