// Command perfbench is the repository's end-to-end benchmark. It drives
// internal/server's handler in-process (ServeHTTP with pre-built
// requests and an in-memory response recorder), so every request runs
// the repository's own code on the request path: mux, instrumentation
// wrapper, admission, JSON decode, store, annotation, coverage, greedy
// and JSON encode, and nothing of the kernel's loopback TCP.
//
// Each workload issues a fixed op stream generated from --seed before
// any clock starts; --seconds sets the stream's length. A run sets the
// server up from scratch and replays the stream in each of five
// rounds, and reports the median round. Load is a closed loop from this
// process. Run it through run.sh from the repository root (--seconds 5
// or more, so each round has the 1000 samples p99 needs):
//
//	bash perfbench/run.sh --workload cold-summarize --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics, or
// with --trace 1 the per-layer metrics of a separate traced run. See
// README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	e := &env{}
	flag.StringVar(&e.workload, "workload", "", "cold-summarize | ingest-follow | read-mostly")
	flag.Int64Var(&e.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&e.seconds, "seconds", 10, "length of the timed op stream, in seconds of planned load (1-60)")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass")
	flag.StringVar(&e.out, "scratch", ".bench_build", "directory for run files and span traces")
	flag.Parse()
	e.trace = *trace == 1
	if e.seconds < 1 || e.seconds > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be 1-60 and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(e.out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e.dir = dir

	rep, err := run(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(os.Stdout, e); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// run generates the workload's inputs, sets the server up and measures.
func run(e *env) (*report, error) {
	ont := doctorOntology()
	var in *inputs
	var setup func(*env, *inputs) (*served, error)
	switch e.workload {
	case "cold-summarize":
		in, setup = genColdSummarize(ont, e.seed, e.seconds), setupCold
	case "ingest-follow":
		in, setup = genIngestFollow(ont, e.seed, e.seconds), setupFollow
		if err := buildDataDir(in, e.dir); err != nil {
			return nil, fmt.Errorf("build data directory: %w", err)
		}
	case "read-mostly":
		in, setup = genReadMostly(ont, e.seed, e.seconds), setupRead
	default:
		return nil, fmt.Errorf("unknown --workload %q (cold-summarize | ingest-follow | read-mostly)", e.workload)
	}
	rep, err := measure(e, in, setup)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, s := range in.Timed {
		n += len(s)
	}
	rep.lines = append([]string{fmt.Sprintf("workload %s seed %d: %d items, %d clients, %d rounds of %d timed requests, GOMAXPROCS %d, traced %v",
		e.workload, e.seed, len(in.Items), in.Clients, rounds, n, runtime.GOMAXPROCS(0), e.trace)}, rep.lines...)
	return rep, nil
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) print(w io.Writer, e *env) error {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	show := func(ms []metric) {
		for _, m := range ms {
			fmt.Fprintf(w, "%-28s %16.6f %-9s %s\n", m.name, m.value, m.unit, m.note)
		}
	}
	show(r.endToEnd)
	show(r.extra)
	show(r.perLayer)
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultValue{}}
	reported := r.endToEnd
	if e.trace {
		reported = r.perLayer
	}
	for _, m := range reported {
		out.Metrics[m.name] = resultValue{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
