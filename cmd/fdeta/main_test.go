package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ami"
	"repro/internal/obs"
)

// TestMain lets the chaos harness re-exec this test binary as its server
// child: cmdChaos spawns os.Executable() with ["chaos", "-serve", ...], and
// when invoked that way the binary must behave as the fdeta CLI rather than
// run the test suite.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "chaos" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// TestRunChaosInvariant is the automated form of the durability claim: the
// chaos harness kill -9s a real WAL-backed head-end process mid-load twice
// and exits non-zero if any acknowledged reading is missing after recovery.
func TestRunChaosInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness spawns and SIGKILLs server processes")
	}
	walDir := t.TempDir()
	args := []string{"chaos",
		"-meters", "8", "-rounds", "2", "-shards", "2", "-batch", "4",
		"-round-len", "400ms", "-wal-dir", walDir, "-wal-sync", "interval"}
	if got := run(args); got != 0 {
		t.Fatalf("chaos exited %d; the durability invariant did not hold", got)
	}
}

func TestRunChaosFlagValidation(t *testing.T) {
	if got := run([]string{"chaos", "-wal-sync", "sometimes"}); got != 1 {
		t.Errorf("bad -wal-sync exited %d, want 1", got)
	}
	if got := run([]string{"chaos", "-meters", "0"}); got != 1 {
		t.Errorf("-meters 0 exited %d, want 1", got)
	}
	if got := run([]string{"chaos", "-serve"}); got != 1 {
		t.Errorf("-serve without -wal-dir exited %d, want 1", got)
	}
}

// TestRunCollectFramesByBatch: every session sends frames of -batch
// readings, so 96 slots at -batch 48 is two frames per meter, also when
// two rebinding sessions carry three meters.
func TestRunCollectFramesByBatch(t *testing.T) {
	const meters, slots, batch = 3, 96, 48
	reg := obs.NewRegistry()
	head := ami.NewSharded(1, ami.WithMetrics(reg))
	defer func() { _ = head.Close() }()
	f := collectFleet{meters: meters, slots: slots, batch: batch, sessions: 2, retries: 3, profiles: 64, seed: 2016}
	if err := f.run(head); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("fdeta_ami_batch_frames_total", "").Value(); got != meters*slots/batch {
		t.Errorf("batch frames = %d, want %d", got, meters*slots/batch)
	}
}

func TestRunDispatcher(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no args", nil, 2},
		{"unknown", []string{"bogus"}, 2},
		{"help", []string{"help"}, 0},
		{"table1", []string{"table1"}, 0},
		{"fig1", []string{"fig1"}, 0},
		{"fig2", []string{"fig2"}, 0},
		{"validate", []string{"validate"}, 0},
		{"investigate", []string{"investigate", "-consumers", "10"}, 0},
		{"investigate compromised", []string{"investigate", "-consumers", "10", "-compromise-path"}, 0},
		{"bill", []string{"bill", "-consumers", "3", "-theft", "0.5"}, 0},
		{"bill bad theft", []string{"bill", "-theft", "2"}, 1},
		{"collect", []string{"collect", "-meters", "4", "-slots", "16"}, 0},
		{"collect faulty", []string{"collect", "-meters", "4", "-slots", "48", "-fault", "dropout:0.25"}, 0},
		{"collect pooled faulty", []string{"collect", "-meters", "64", "-slots", "96", "-batch", "8", "-concurrency", "8", "-fault", "dropout:0.1"}, 0},
		{"collect bad meters", []string{"collect", "-meters", "0"}, 1},
		{"collect bad slots", []string{"collect", "-slots", "999"}, 1},
		{"collect bad fault", []string{"collect", "-meters", "2", "-fault", "sparks:1"}, 1},
		{"collect bad batch", []string{"collect", "-batch", "0"}, 1},
		{"faults bad rates", []string{"faults", "-rates", "0,zero"}, 1},
		{"faults bad spec", []string{"faults", "-rates", "0", "-fault", "sparks:1"}, 1},
		{"table2 bad fault spec", []string{"table2", "-fault", "dropout:2"}, 1},
		{"bad flag", []string{"table1", "-nope"}, 1},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if got := run(tt.args); got != tt.want {
				t.Errorf("run(%v) = %d, want %d", tt.args, got, tt.want)
			}
		})
	}
}

func TestRunGenerateAndDetect(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "ds.csv")
	if got := run([]string{"generate", "-o", csv}); got != 0 {
		t.Fatalf("generate exited %d", got)
	}
	if _, err := os.Stat(csv); err != nil {
		t.Fatalf("dataset not written: %v", err)
	}
	if got := run([]string{"detect", "-data", csv, "-train", "18"}); got != 0 {
		t.Fatalf("detect exited %d", got)
	}
	// Single-consumer filter path.
	if got := run([]string{"detect", "-data", csv, "-train", "18", "-consumer", "1000"}); got != 0 {
		t.Fatalf("detect -consumer exited %d", got)
	}
	// Missing -data is an error.
	if got := run([]string{"detect"}); got != 1 {
		t.Error("detect without -data should fail")
	}
	// Unreadable file is an error.
	if got := run([]string{"detect", "-data", filepath.Join(dir, "missing.csv")}); got != 1 {
		t.Error("missing dataset should fail")
	}
}

func TestRunFigureOutputs(t *testing.T) {
	dir := t.TempDir()
	fig3 := filepath.Join(dir, "fig3.csv")
	if got := run([]string{"fig3", "-consumers", "3", "-o", fig3}); got != 0 {
		t.Fatalf("fig3 exited nonzero")
	}
	data, err := os.ReadFile(fig3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "slot,actual_kw") {
		t.Error("fig3 CSV header missing")
	}
	fig4 := filepath.Join(dir, "fig4.csv")
	if got := run([]string{"fig4", "-consumers", "3", "-o", fig4}); got != 0 {
		t.Fatalf("fig4 exited nonzero")
	}
	data, err = os.ReadFile(fig4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "attack_kld") {
		t.Error("fig4 CSV missing KLD block")
	}
}

func TestRunSimulateAndReport(t *testing.T) {
	if testing.Short() {
		t.Skip("slow CLI path")
	}
	if got := run([]string{"simulate", "-consumers", "5", "-train", "12", "-weeks", "5"}); got != 0 {
		t.Error("simulate exited nonzero")
	}
	dir := t.TempDir()
	report := filepath.Join(dir, "r.md")
	if got := run([]string{"report", "-consumers", "6", "-trials", "3", "-o", report}); got != 0 {
		t.Fatal("report exited nonzero")
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"## Table I", "## Table II", "## Table III", "Headline", "Multi-victim"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestRunTable2Checkpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("slow CLI path")
	}
	cp := filepath.Join(t.TempDir(), "eval.ckpt")
	args := []string{"table2", "-consumers", "4", "-trials", "2", "-checkpoint", cp}
	if got := run(args); got != 0 {
		t.Fatalf("checkpointed run exited %d", got)
	}
	data, err := os.ReadFile(cp)
	if err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	if !strings.Contains(string(data), "\"Fingerprint\"") {
		t.Error("checkpoint missing fingerprint")
	}
	// A rerun with the same settings resumes from the checkpoint and still
	// prints the same table.
	if got := run(args); got != 0 {
		t.Errorf("resumed run exited %d", got)
	}
}

func TestRunEvalCommandsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("slow CLI path")
	}
	for _, args := range [][]string{
		{"table2", "-consumers", "5", "-trials", "3"},
		{"faults", "-consumers", "4", "-trials", "2", "-rates", "0,0.3"},
		{"table2", "-consumers", "4", "-trials", "2", "-fault", "dropout:0.1"},
		{"table3", "-consumers", "5", "-trials", "3", "-summary"},
		{"ttd", "-consumers", "5", "-trials", "3"},
		{"fp-profile", "-consumers", "5"},
		{"baselines", "-consumers", "5", "-trials", "3"},
		{"spread", "-consumers", "8", "-kwh", "100"},
		{"ablate-divergence", "-consumers", "5", "-trials", "3"},
	} {
		if got := run(args); got != 0 {
			t.Errorf("run(%v) exited nonzero", args)
		}
	}
}

func TestRunServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("serve smoke streams 13 weeks over TCP")
	}
	dir := t.TempDir()
	alerts := filepath.Join(dir, "alerts.jsonl")
	if got := run([]string{"serve", "-smoke", "-alerts-out", alerts}); got != 0 {
		t.Fatalf("serve -smoke exited %d", got)
	}
	buf, err := os.ReadFile(alerts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), `"tier":"HIGH"`) {
		t.Errorf("alert JSONL lacks a HIGH event:\n%s", buf)
	}
}

func TestRunServeFlagValidation(t *testing.T) {
	if got := run([]string{"serve", "-weeks", "3", "-train", "4"}); got != 1 {
		t.Errorf("-weeks < train+2 exited %d, want 1", got)
	}
	for _, train := range []string{"1", "0"} {
		if got := run([]string{"serve", "-weeks", "3", "-train", train}); got != 1 {
			t.Errorf("-train %s exited %d, want 1", train, got)
		}
	}
	if got := run([]string{"serve", "-meters", "1", "-weeks", "13", "-train", "4"}); got != 1 {
		t.Errorf("-meters 1 exited %d, want 1", got)
	}
}
