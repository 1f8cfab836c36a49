package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"subtraj"
	"subtraj/internal/server"
	"subtraj/internal/setup"
	"subtraj/internal/wal"
)

// The crash-recovery harness: build the real wedserve binary, ingest over
// HTTP with -wal-sync always, SIGKILL it mid-ingest, and verify that the
// recovered state (a) contains at least every acknowledged append and at
// most every sent one, (b) is bit-identical to the sent prefix it claims
// to hold, and (c) yields bit-equal search results under all six cost
// models versus an uncrashed reference engine fed the same prefix.

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

// binaryPath builds wedserve once per test process and returns its path.
func binaryPath(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "wedserve-bin")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "wedserve")
		out, err := exec.Command("go", "build", "-o", buildBin, ".").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildBin
}

// freePort grabs an ephemeral port and releases it for the child to bind.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// startChild launches wedserve against the given durable dir and waits
// until /healthz answers. The returned cleanup reaps the process.
func startChild(t *testing.T, walDir string, port int) (*exec.Cmd, string) {
	return startChildOpts(t, walDir, port, nil)
}

// startChildOpts is startChild with extra environment entries (appended
// to the test process's own) and extra command-line flags — the
// fault-injection tests use them to arm crash points and shrink the
// compaction threshold.
func startChildOpts(t *testing.T, walDir string, port int, env []string, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	bin := binaryPath(t)
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := []string{
		"-addr", addr,
		"-dataset", "tiny", "-scale", "1", "-model", "EDR",
		"-wal-dir", walDir, "-wal-sync", "always", "-checkpoint-bytes", "0",
		"-gps-sigma", "0",
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	if len(env) > 0 {
		cmd.Env = append(os.Environ(), env...)
	}
	var logBuf bytes.Buffer
	cmd.Stdout = &logBuf
	cmd.Stderr = &logBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	base := "http://" + addr
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd, base
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("child never became healthy; log:\n%s", logBuf.String())
	return nil, ""
}

type healthz struct {
	Status            string `json:"status"`
	Trajectories      int    `json:"trajectories"`
	Durable           bool   `json:"durable"`
	DurableGeneration uint64 `json:"durable_generation"`
	WALRecords        int64  `json:"wal_records"`
	RecoveryReplayed  int64  `json:"recovery_replayed_records"`
}

func getHealthz(t *testing.T, base string) healthz {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// ingestPayloads derives deterministic append bodies from the base
// workload: rotated copies of existing paths with index-tagged
// timestamps, so recovered bytes are checkable bit-for-bit.
func ingestPayloads(base *subtraj.Workload, n int) []subtraj.Trajectory {
	out := make([]subtraj.Trajectory, n)
	trajs := base.Data.Trajs
	for i := range out {
		src := trajs[i%len(trajs)].Path
		p := make([]subtraj.Symbol, len(src))
		rot := i % len(src)
		copy(p, src[rot:])
		copy(p[len(src)-rot:], src[:rot])
		ts := make([]float64, len(p))
		for j := range ts {
			ts[j] = float64(i*1000+j) + 0.25
		}
		out[i] = subtraj.Trajectory{Path: p, Times: ts}
	}
	return out
}

func postAppend(client *http.Client, base string, tr subtraj.Trajectory) error {
	body, _ := json.Marshal(map[string]any{"path": tr.Path, "times": tr.Times})
	resp, err := client.Post(base+"/v1/append", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("append: HTTP %d", resp.StatusCode)
	}
	return nil
}

// referenceEngine builds an uncrashed engine for the model: a pristine
// tiny workload plus the given appended tail.
func referenceEngine(t *testing.T, model string, tail []subtraj.Trajectory) *subtraj.Engine {
	t.Helper()
	costs, data, err := setup.Build(subtraj.Generate(subtraj.TinyWorkload(42)), model)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := subtraj.NewEngine(data, costs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range tail {
		eng.Append(tr)
	}
	return eng
}

func copyDurableDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func sameTrajectory(a, b subtraj.Trajectory) bool {
	if len(a.Path) != len(b.Path) || len(a.Times) != len(b.Times) {
		return false
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	for i := range a.Times {
		if a.Times[i] != b.Times[i] {
			return false
		}
	}
	return true
}

func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	walDir := t.TempDir()
	port := freePort(t)
	child, base := startChild(t, walDir, port)

	baseW := subtraj.Generate(subtraj.TinyWorkload(42))
	baseLen := baseW.Data.Len()
	payloads := ingestPayloads(baseW, 10000)

	// Serial ingest; a goroutine SIGKILLs the child shortly after the
	// 12th ack, so the crash lands with requests in flight.
	client := &http.Client{Timeout: 2 * time.Second}
	var sent, acked int
	killed := make(chan struct{})
	for _, tr := range payloads {
		sent++
		err := postAppend(client, base, tr)
		if err != nil {
			break // child is dead: end of the crash window
		}
		acked++
		if acked == 12 {
			go func() {
				time.Sleep(2 * time.Millisecond)
				child.Process.Kill() // SIGKILL: no flush, no shutdown path
				close(killed)
			}()
		}
	}
	if acked < 12 {
		t.Fatalf("child died before the kill was even scheduled: acked=%d", acked)
	}
	<-killed
	child.Wait()
	if sent == len(payloads) {
		t.Fatalf("ingest loop completed all %d appends without observing the crash", sent)
	}
	t.Logf("crash window: %d acked, %d sent", acked, sent)

	// In-process recovery on a copy of the durable dir: the recovered
	// tail must be a bit-exact prefix of what was sent, no shorter than
	// what was acknowledged (fsync-before-ack), no longer than sent.
	recDir := copyDurableDir(t, walDir)
	recW := subtraj.Generate(subtraj.TinyWorkload(42))
	netw := subtraj.NewNetwork(recW.Graph)
	inner, rec, err := server.OpenDurable(recDir, recW.Data, netw.EDR(100), server.DurableOptions{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	recovered := int(rec.ReplayedRecords)
	if err := inner.Durable().Close(); err != nil {
		t.Fatal(err)
	}
	// The final, failed append may still have reached the WAL before the
	// kill, so the upper bound is inclusive.
	if recovered < acked || recovered > sent {
		t.Fatalf("recovered %d records, want [%d, %d]", recovered, acked, sent)
	}
	tail := make([]subtraj.Trajectory, recovered)
	copy(tail, recW.Data.Trajs[baseLen:])
	for i, tr := range tail {
		if !sameTrajectory(tr, payloads[i]) {
			t.Fatalf("recovered record %d differs from the sent payload", i)
		}
	}

	// The recovered prefix must be indistinguishable from an uncrashed
	// run under every cost model: identical inputs, so identical engines
	// — search results must match bit for bit.
	rng := rand.New(rand.NewSource(9))
	for _, model := range setup.Models {
		ref := referenceEngine(t, model, payloads[:recovered])
		got := referenceEngine(t, model, tail)
		q, err := subtraj.SampleQuery(ref.Dataset(), 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		refM, err := ref.SearchRatio(q, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		gotM, err := got.SearchRatio(q, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if len(refM) != len(gotM) {
			t.Fatalf("%s: %d matches recovered vs %d reference", model, len(gotM), len(refM))
		}
		for i := range refM {
			if refM[i] != gotM[i] {
				t.Fatalf("%s: match %d differs: recovered %+v, reference %+v", model, i, gotM[i], refM[i])
			}
		}
	}

	// Restart the real binary on the surviving dir: it must report the
	// same recovered generation and serve search results bit-equal to
	// the in-process reference.
	port2 := freePort(t)
	child2, base2 := startChild(t, walDir, port2)
	h := getHealthz(t, base2)
	if !h.Durable {
		t.Fatal("restarted server does not report durable mode")
	}
	if int(h.DurableGeneration) != recovered {
		t.Fatalf("restarted generation = %d, recovered = %d", h.DurableGeneration, recovered)
	}
	if h.Trajectories != baseLen+recovered {
		t.Fatalf("restarted trajectories = %d, want %d", h.Trajectories, baseLen+recovered)
	}
	if int(h.RecoveryReplayed) != recovered {
		t.Fatalf("restarted recovery_replayed_records = %d, want %d", h.RecoveryReplayed, recovered)
	}

	ref := referenceEngine(t, "EDR", payloads[:recovered])
	q, err := subtraj.SampleQuery(ref.Dataset(), 8, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	refM, err := ref.SearchRatio(q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{"q": q, "tau_ratio": 0.2})
	resp, err := client.Post(base2+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr struct {
		Matches []struct {
			ID  int32   `json:"id"`
			S   int32   `json:"s"`
			T   int32   `json:"t"`
			WED float64 `json:"wed"`
		} `json:"matches"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search after restart: HTTP %d", resp.StatusCode)
	}
	if len(sr.Matches) != len(refM) {
		t.Fatalf("restarted search: %d matches, reference %d", len(sr.Matches), len(refM))
	}
	for i, m := range sr.Matches {
		if m.ID != refM[i].ID || m.S != refM[i].S || m.T != refM[i].T || m.WED != refM[i].WED {
			t.Fatalf("restarted search match %d = %+v, reference %+v", i, m, refM[i])
		}
	}

	// A clean restart must also shut down cleanly, closing the WAL.
	child2.Process.Signal(os.Interrupt)
	if err := child2.Wait(); err != nil {
		t.Fatalf("graceful shutdown after recovery: %v", err)
	}
}

// TestCompactionCrashRecovery SIGKILLs wedserve between a fold's arena
// build and its publish — the adversarial window the epoch design opens:
// the new base is fully built but the snapshot swap never happens. It
// does so for a compaction and for a background checkpoint, which is the
// same fold, and once more inside a checkpoint's arena write, with
// index.compact.tmp written and fsynced but not renamed. The WAL is the
// only authority over appended data, so recovery must replay the whole
// acknowledged delta exactly once — no lost appends, no duplicates — and
// a restarted server must fold successfully where the crashed one died.
func TestCompactionCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	for _, tc := range []struct {
		name string
		// crashPoint is where the child dies. flags make the background
		// fold trigger within the first few appends, so an early
		// acknowledged append detonates it; minAcked is how many appends
		// precede the trigger.
		crashPoint string
		flags      []string
		minAcked   int
	}{
		{"fold", "compact-fold", []string{"-compact-appends", "8"}, 7},
		// ~190 WAL bytes per payload: a checkpoint after about 11 appends.
		{"checkpoint", "compact-fold", []string{"-compact-appends", "0", "-checkpoint-bytes", "2048"}, 8},
		{"checkpoint-index", "checkpoint-index", []string{"-compact-appends", "0", "-checkpoint-bytes", "2048"}, 8},
	} {
		t.Run(tc.name, func(t *testing.T) { foldCrashRecovery(t, tc.crashPoint, tc.flags, tc.minAcked) })
	}
}

func foldCrashRecovery(t *testing.T, crashPoint string, flags []string, minAcked int) {
	walDir := t.TempDir()
	port := freePort(t)
	child, base := startChildOpts(t, walDir, port,
		[]string{"SUBTRAJ_CRASH_POINT=" + crashPoint}, flags...)

	baseW := subtraj.Generate(subtraj.TinyWorkload(42))
	baseLen := baseW.Data.Len()
	payloads := ingestPayloads(baseW, 200)

	client := &http.Client{Timeout: 2 * time.Second}
	var sent, acked int
	for _, tr := range payloads {
		sent++
		if err := postAppend(client, base, tr); err != nil {
			break // the armed crash point fired
		}
		acked++
	}
	child.Wait()
	if sent == len(payloads) {
		t.Fatalf("all %d appends succeeded: the %s crash point never fired", sent, crashPoint)
	}
	if acked < minAcked {
		t.Fatalf("crashed before the fold threshold: acked=%d", acked)
	}
	t.Logf("fold crash window: %d acked, %d sent", acked, sent)
	if crashPoint == "checkpoint-index" {
		// The crash left a whole arena in the tmp file and none in place.
		if _, err := os.Stat(filepath.Join(walDir, "index.compact.tmp")); err != nil {
			t.Fatalf("no stale arena tmp file after the crash: %v", err)
		}
		if _, err := os.Stat(filepath.Join(walDir, "index.compact")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("index.compact after a crash before its rename: %v", err)
		}
	}

	// In-process recovery from a copy: every acknowledged append must
	// come back exactly once, bit-for-bit, in append order — the fold
	// that died was pure index work, so no trajectory may be missing
	// (lost on fold) or doubled (replayed on top of a folded base).
	recDir := copyDurableDir(t, walDir)
	recW := subtraj.Generate(subtraj.TinyWorkload(42))
	netw := subtraj.NewNetwork(recW.Graph)
	inner, rec, err := server.OpenDurable(recDir, recW.Data, netw.EDR(100), server.DurableOptions{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	recovered := int(rec.ReplayedRecords)
	if recovered < acked || recovered > sent {
		t.Fatalf("recovered %d records, want [%d, %d]", recovered, acked, sent)
	}
	if got := recW.Data.Len() - baseLen; got != recovered {
		t.Fatalf("dataset holds %d appended records, recovery reports %d", got, recovered)
	}
	for i, tr := range recW.Data.Trajs[baseLen:] {
		if !sameTrajectory(subtraj.Trajectory(tr), payloads[i]) {
			t.Fatalf("recovered record %d differs from the sent payload (duplicate or reorder)", i)
		}
	}
	// The recovered engine must fold the replayed delta cleanly.
	if _, err := inner.Compact(); err != nil {
		t.Fatalf("compact after recovery: %v", err)
	}
	if inner.DeltaLen() != 0 || inner.FoldedLen() != baseLen+recovered {
		t.Fatalf("post-recovery fold: delta=%d folded=%d, want 0/%d",
			inner.DeltaLen(), inner.FoldedLen(), baseLen+recovered)
	}
	if err := inner.Durable().Close(); err != nil {
		t.Fatal(err)
	}

	// Restart the real binary on the surviving dir WITHOUT the crash
	// point: it must recover the same generation and survive crossing
	// the threshold it died on.
	port2 := freePort(t)
	child2, base2 := startChildOpts(t, walDir, port2, nil, flags...)
	h := getHealthz(t, base2)
	if int(h.DurableGeneration) != recovered || h.Trajectories != baseLen+recovered {
		t.Fatalf("restart: generation=%d trajectories=%d, want %d/%d",
			h.DurableGeneration, h.Trajectories, recovered, baseLen+recovered)
	}
	for i := 0; i < 10; i++ {
		if err := postAppend(client, base2, payloads[recovered+i]); err != nil {
			t.Fatalf("append %d after restart: %v", i, err)
		}
	}
	// The appends crossed the threshold: a background compaction must
	// complete and absorb the delta, or a background checkpoint complete
	// (no arena was mapped, so the trigger counts the recovered WAL from
	// 0 and the first append starts one) — over any stale arena tmp file
	// the crash left.
	var st struct {
		Ingest struct {
			Compactions int64 `json:"compactions"`
			Delta       int   `json:"delta_trajectories"`
		} `json:"ingest"`
		Durability struct {
			Checkpoints      int64 `json:"checkpoints"`
			CheckpointErrors int64 `json:"checkpoint_errors"`
		} `json:"durability"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(base2 + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Durability.CheckpointErrors != 0 {
			t.Fatalf("background checkpoint failed after restart: %+v", st)
		}
		if st.Ingest.Compactions >= 1 && st.Ingest.Delta < 8 || st.Durability.Checkpoints >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background fold never completed after restart: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if h2 := getHealthz(t, base2); h2.Trajectories != baseLen+recovered+10 || int(h2.DurableGeneration) != recovered+10 {
		t.Fatalf("after restart appends: %d trajectories at generation %d, want %d at %d",
			h2.Trajectories, h2.DurableGeneration, baseLen+recovered+10, recovered+10)
	}
	child2.Process.Signal(os.Interrupt)
	if err := child2.Wait(); err != nil {
		t.Fatalf("graceful shutdown after fold recovery: %v", err)
	}
}

// TestBuildEngineRebuildsStaleIndexFile: an -index-file of an older
// format version is rebuilt and saved again, not a start-up failure; an
// index file over a prefix of the dataset is mapped as it is.
func TestBuildEngineRebuildsStaleIndexFile(t *testing.T) {
	w := subtraj.Generate(subtraj.TinyWorkload(42))
	costs, data, err := setup.Build(w, "EDR")
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "tiny.sbtj")
	if _, err := buildEngine(data, costs, file); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	b[8] = 1 // the format version
	if err := os.WriteFile(file, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := buildEngine(data, costs, file); err != nil {
		t.Fatalf("an older-version index file: %v, want a rebuild", err)
	}
	data.Add(data.Trajs[0])
	eng, err := buildEngine(data, costs, file)
	if err != nil {
		t.Fatalf("the rebuilt file over a grown dataset: %v", err)
	}
	if eng.DeltaLen() != 1 {
		t.Fatalf("delta %d, want the one trajectory after the file's prefix", eng.DeltaLen())
	}
}

// TestDurableFlagValidation checks the flag combinations wedserve must
// refuse rather than silently misconfigure durability.
func TestDurableFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	bin := binaryPath(t)
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"index-file conflict", []string{"-wal-dir", t.TempDir(), "-index-file", "x.sbtj"}, "-index-file cannot be combined"},
		{"bad sync policy", []string{"-wal-dir", t.TempDir(), "-wal-sync", "sometimes"}, "sync policy"},
		// -index is gone with the second index: a script that still picks
		// a kind must fail at startup, not run on a default it did not ask for.
		{"bad index kind", []string{"-wal-dir", t.TempDir(), "-index", "compact"}, "flag provided but not defined: -index"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-dataset", "tiny", "-addr", "127.0.0.1:0"}, tc.args...)
			out, err := exec.Command(bin, args...).CombinedOutput()
			if err == nil {
				t.Fatalf("wedserve accepted %v; output:\n%s", tc.args, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("error output %q does not mention %q", out, tc.want)
			}
		})
	}
}
