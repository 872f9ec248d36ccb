// Command perfbench is the HAL runtime's wall-clock benchmark.  It runs
// one closed-loop workload through the public hal API and the app
// packages, checks every result, and prints the metrics by name with
// their units and sample counts.  The last line of its standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload fib-mem --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics.  --trace 1 runs the same
// workload with the timing decorators and the span log on, reports the
// per-layer metrics, and writes the spans to a file under the output
// directory ($CARGO_TARGET_DIR, or .bench_build).  See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run){
	"fib-mem":      runFibMem,
	"fib-unix":     runFibUnix,
	"rpc-mem":      runRPC,
	"pagerank-mem": runPageRank,
}

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func realMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fib-mem, fib-unix, rpc-mem or pagerank-mem")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 25, "how long the run measures")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	worker := fs.String("worker", "", "internal: serve as the fib-unix worker for the leader at this socket")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *worker != "" {
		return runWorker(*worker, *trace == 1)
	}
	drive, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	out := outDir()
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	r := &run{size: fullSize, seed: *seed, dur: time.Duration(*seconds) * time.Second, sockDir: relDir(out)}
	if *trace == 1 {
		r.spans = newSpanLog()
	}
	drive(r)

	host := hostFingerprint()
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d units=%d\n", *name, *seed, *seconds, *trace, r.units)
	fmt.Fprintf(stdout, "host %s\n", host)
	ms := r.endToEnd()
	if r.spans != nil {
		ms = r.perLayer()
	}
	rec := result{Workload: *name, Seed: *seed, Trace: *trace, Host: host, HostID: host.id(), Metrics: map[string]value{}}
	for _, m := range ms {
		rec.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	fmt.Fprintln(stdout, compareWithLog(filepath.Join(out, "results.jsonl"), rec))
	if r.spans != nil {
		path := filepath.Join(out, "spans", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := r.spans.write(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans %s (%d kept, %d dropped)\n", path, len(r.spans.spans), r.spans.dropped)
	}
	fmt.Fprintf(stdout, "%-30s %16s %-6s %s\n", "metric", "value", "unit", "samples")
	for _, m := range append(ms, r.reported()...) {
		fmt.Fprintf(stdout, "%-30s %16.6g %-6s %d\n", m.Name, m.Value, m.Unit, m.N)
	}
	for _, note := range r.notes {
		fmt.Fprintln(stdout, "failure:", note)
	}
	failed := min(r.failed, r.attempted)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, r.attempted, failed, rec.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// value is one metric in the result object.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outDir is where the benchmark writes its spans and results log.
func outDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// relDir returns dir relative to the working directory when it lies
// inside it, "." otherwise: unix socket paths are limited to about 100
// bytes, so the fib-unix sockets use the shortest path that stays inside
// the checkout.
func relDir(dir string) string {
	if !filepath.IsAbs(dir) {
		return dir
	}
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	rel, err := filepath.Rel(wd, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "."
	}
	return rel
}

// fingerprint identifies the host a result was measured on.  Results
// with different fingerprints are not comparable.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPUModel   string `json:"cpu"`
	Kernel     string `json:"kernel"`
}

func hostFingerprint() fingerprint {
	return fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Kernel:     kernelRelease(),
	}
}

func (f fingerprint) id() string {
	b, _ := json.Marshal(f) // a struct of strings and ints always marshals
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:6])
}

func (f fingerprint) String() string {
	return fmt.Sprintf("id=%s nproc=%d gomaxprocs=%d go=%s kernel=%s cpu=%q",
		f.id(), f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.Kernel, f.CPUModel)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// result is one line of the results log.
type result struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Trace    int              `json:"trace"`
	Host     fingerprint      `json:"host"`
	HostID   string           `json:"host_id"`
	Metrics  map[string]value `json:"metrics"`
}

// compareWithLog appends rec to the results log at path and says whether
// the previous result of the same workload and mode, if any, was
// measured on the same host and so can be compared with this one.
func compareWithLog(path string, rec result) string {
	prev, err := lastResult(path, rec.Workload, rec.Trace)
	verdict := "previous none"
	switch {
	case err != nil:
		verdict = "previous unreadable: " + err.Error()
	case prev == nil:
	case prev.HostID == rec.HostID:
		verdict = "previous comparable (same host id " + rec.HostID + ")"
	default:
		verdict = fmt.Sprintf("previous NOT COMPARABLE: measured on host %s, this is %s", prev.Host, rec.Host)
	}
	if err := appendResult(path, rec); err != nil {
		verdict += "; results log not written: " + err.Error()
	}
	return verdict
}

func lastResult(path, workload string, trace int) (*result, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var last *result
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var rec result
		if json.Unmarshal([]byte(line), &rec) == nil && rec.Workload == workload && rec.Trace == trace {
			last = &rec
		}
	}
	return last, nil
}

func appendResult(path string, rec result) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
