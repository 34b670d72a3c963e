package dsmnc

import (
	"bytes"
	"strings"
	"testing"

	"dsmnc/stats"
)

func sampleExperiment(norm bool) Experiment {
	e := Experiment{
		ID:      "figX",
		Title:   "sample",
		Metric:  "miss-ratio %",
		Systems: []string{"sysA", "sysB"},
		Rows: []Row{
			{Bench: "W1", Values: []Value{
				{Read: 1.5, Write: 0.5, Reloc: 0.25},
				{Read: 1.0},
			}},
		},
	}
	if norm {
		e.Metric = "normalized stall"
		e.Rows[0].Values[0].Norm = 1.25
		e.Rows[0].Values[1].Norm = 0.75
	}
	return e
}

func TestWriteTableRatio(t *testing.T) {
	var buf bytes.Buffer
	sampleExperiment(false).WriteTable(&buf)
	out := buf.String()
	for _, want := range []string{"figX", "sysA", "W1", "1.500+0.500w+0.250r", "1.000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTableNormalized(t *testing.T) {
	var buf bytes.Buffer
	sampleExperiment(true).WriteTable(&buf)
	out := buf.String()
	if !strings.Contains(out, "1.250 (r0.25%)") {
		t.Fatalf("normalized cell with relocation share missing:\n%s", out)
	}
	if !strings.Contains(out, "0.750") {
		t.Fatalf("plain normalized cell missing:\n%s", out)
	}
}

func TestWriteChart(t *testing.T) {
	var buf bytes.Buffer
	sampleExperiment(false).WriteChart(&buf, 20)
	out := buf.String()
	if !strings.Contains(out, "#") || !strings.Contains(out, "=") || !strings.Contains(out, "~") {
		t.Fatalf("stacked segments missing:\n%s", out)
	}
	buf.Reset()
	sampleExperiment(true).WriteChart(&buf, 20)
	if !strings.Contains(buf.String(), "1.250") {
		t.Fatalf("normalized chart values missing:\n%s", buf.String())
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	sampleExperiment(false).WriteCSV(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 cells
		t.Fatalf("CSV lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "figX,W1,sysA,1.5,0.5,0.25") {
		t.Fatalf("CSV row wrong: %q", lines[1])
	}
}

func TestWriteTables12(t *testing.T) {
	var buf bytes.Buffer
	WriteTable1(&buf, stats.DefaultLatencies())
	if !strings.Contains(buf.String(), "DRAM access + tag checking") ||
		!strings.Contains(buf.String(), "13") {
		t.Fatalf("Table 1 wrong:\n%s", buf.String())
	}
	buf.Reset()
	WriteTable2(&buf, stats.DefaultLatencies())
	for _, want := range []string{"10", "3", "1", "30", "225"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("Table 2 missing %q:\n%s", want, buf.String())
		}
	}
}

func TestWriteTable3Render(t *testing.T) {
	var buf bytes.Buffer
	WriteTable3(&buf, []Table3Row{
		{Name: "FFT", Params: "64K points", PaperMB: 3.54, OurMB: 1.0, Refs: 42, ReadPct: 60.0},
	})
	out := buf.String()
	for _, want := range []string{"FFT", "64K points", "3.54", "42", "60.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 3 missing %q:\n%s", want, out)
		}
	}
}

func TestAblationRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, f := range Figures() {
		ids[f.ID] = true
	}
	for _, id := range []string{"ablate-ostate", "ablate-decr", "ablate-ncsize", "ablate-ncways", "ablate-threshold"} {
		if !ids[id] {
			t.Errorf("ablation %s missing", id)
		}
	}
}
