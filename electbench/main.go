// Command electbench is the repository's benchmark. It drives PoisonPill
// elections through the entry points users call — electd.NewClusterSpec,
// Cluster.NewComm, electd.NewParticipant and core.LeaderElectWithState over
// TCP and UDP, as `electd -elect` does, and live.Elect over a
// live.SystemPool on the in-process chan substrate — checks every outcome,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) of one workload, or of each in turn with --workload all.
//
//	bash electbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// Servers and clients share this one process and the host's cores over
// loopback, with no injected message delay: latencies are processor time
// plus scheduling, not network time.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it describe the
// host, the workload and every metric in words. Exit status 2 means bad
// arguments or a failed set-up, 3 an election with two winners.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// setupReps is how many set-ups a run times; setup_s is their median.
const setupReps = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("electbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed: per-election seeds derive from it")
	seconds := fs.Float64("seconds", 10, "measured time, in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(stderr, "electbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{
		seed:      *seed,
		window:    time.Duration(*seconds * float64(time.Second)),
		setupReps: setupReps,
		traced:    *traced == 1,
	}
	if *name == "all" {
		for _, w := range workloads {
			if code := runOne(w, cfg, stdout, stderr); code != 0 {
				return code
			}
		}
		return 0
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "electbench: unknown workload %q (want all or one of %s)\n", *name, workloadNames())
		return 2
	}
	return runOne(w, cfg, stdout, stderr)
}

// runOne runs one workload and prints its report.
func runOne(w workload, cfg config, stdout, stderr io.Writer) int {
	printHeader(stdout, w, cfg)
	rep, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "electbench: %s: %v\n", w.name, err)
		if errors.Is(err, errSafety) {
			return 3
		}
		return 2
	}
	if err := printReport(stdout, rep); err != nil {
		fmt.Fprintf(stderr, "electbench: %s: %v\n", w.name, err)
		return 2
	}
	return 0
}

// printHeader records the run's provenance: the host shape, so single-core
// numbers are never read as multi-core ones, and the workload and seed.
func printHeader(out io.Writer, w workload, cfg config) {
	prov := map[string]any{
		"workload":   w.name,
		"seed":       cfg.seed,
		"seconds":    cfg.window.Seconds(),
		"trace":      cfg.traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"go":         runtime.Version(),
	}
	b, _ := json.Marshal(prov) // a map of plain values always marshals
	fmt.Fprintf(out, "provenance %s\n", b)
	fmt.Fprintf(out, "load %s\n", w.shape)
	fmt.Fprintln(out, "note servers and clients share one process and its cores over loopback with no injected message delay: latency is processor time plus scheduling, not network time")
}

// printReport prints every metric by name with its unit, the outcome
// check, and the closing JSON line.
func printReport(out io.Writer, rep report) error {
	failedShare := 0.0
	if rep.attempted > 0 {
		failedShare = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(out, "check correct=%v attempted=%d failed=%d failed_share=%g\n",
		rep.correct, rep.attempted, rep.failed, failedShare)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(rep.metrics))
	for _, m := range rep.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		line := fmt.Sprintf("metric %s %g %s", m.name, m.value, m.unit)
		if m.note != "" {
			line += " (" + m.note + ")"
		}
		fmt.Fprintln(out, line)
		metrics[m.name] = value{m.value, m.unit}
	}
	for _, n := range rep.notes {
		fmt.Fprintf(out, "note %s\n", n)
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", b)
	return nil
}
