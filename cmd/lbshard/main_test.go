// Process-level acceptance tests: the test binary re-executes itself as
// the real lbshard (TestMain trampoline), so these exercise actual OS
// processes talking over real sockets — coordinator plus P workers,
// unix and TCP, including a worker SIGKILLed mid-run and the resumed
// run reproducing the uninterrupted result byte for byte.
package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("LBSHARD_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// lbshard runs this test binary as the lbshard command.
func lbshard(t *testing.T, args ...string) ([]byte, error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "LBSHARD_AS_MAIN=1")
	return cmd.CombinedOutput()
}

// mustRun runs lbshard and fails the test on a non-zero exit.
func mustRun(t *testing.T, args ...string) []byte {
	t.Helper()
	out, err := lbshard(t, args...)
	if err != nil {
		t.Fatalf("lbshard %v: %v\n%s", args, err, out)
	}
	return out
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestProcessParityUniform: P ∈ {2, 4} worker processes over a unix
// socket must produce the in-process shard engine's exact result
// (-verify checks bit-identity in the coordinator), and the P=2 and P=4
// result files must be byte-identical to each other.
func TestProcessParityUniform(t *testing.T) {
	dir := t.TempDir()
	var results [][]byte
	for _, p := range []int{2, 4} {
		res := filepath.Join(dir, "uniform-"+strconv.Itoa(p)+".json")
		out := mustRun(t,
			"-graph", "torus", "-n", "16", "-tasks", "800", "-seed", "9",
			"-rounds", "40", "-trace", "7", "-shards", strconv.Itoa(p),
			"-socket", filepath.Join(dir, "u"+strconv.Itoa(p)+".sock"),
			"-spawn", "-verify", "-result", res)
		if !bytes.Contains(out, []byte("verify: OK")) {
			t.Fatalf("P=%d: no verify line in output:\n%s", p, out)
		}
		results = append(results, readFile(t, res))
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Fatal("P=2 and P=4 result files differ")
	}
}

// TestProcessParityWeighted is the weighted-model version, with
// heterogeneous speeds so the speed-scaled protocol paths run — over a
// Table-1 class and over a mesh with integer speeds, which only the
// shared instance spec builds.
func TestProcessParityWeighted(t *testing.T) {
	for name, inst := range map[string][]string{
		"torus-twoclass": {"-graph", "torus", "-n", "16", "-speeds", "twoclass"},
		"mesh-integers":  {"-graph", "mesh", "-n", "20", "-speeds", "integers"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var results [][]byte
			for _, p := range []int{2, 4} {
				res := filepath.Join(dir, "weighted-"+strconv.Itoa(p)+".json")
				out := mustRun(t, append(inst,
					"-tasks", "800", "-seed", "9", "-model", "weighted",
					"-rounds", "40", "-trace", "7", "-shards", strconv.Itoa(p),
					"-socket", filepath.Join(dir, "w"+strconv.Itoa(p)+".sock"),
					"-spawn", "-verify", "-result", res)...)
				if !bytes.Contains(out, []byte("verify: OK")) {
					t.Fatalf("P=%d: no verify line in output:\n%s", p, out)
				}
				results = append(results, readFile(t, res))
			}
			if !bytes.Equal(results[0], results[1]) {
				t.Fatal("P=2 and P=4 result files differ")
			}
		})
	}
}

// TestBadInstanceFailsBeforeSpawn: an instance the flags alone reject —
// an unknown name, an out-of-range size, a protocol the wire cannot
// carry — must fail before the coordinator listens or spawns workers.
func TestBadInstanceFailsBeforeSpawn(t *testing.T) {
	for name, bad := range map[string][]string{
		"graph":     {"-graph", "barbell"},
		"placement": {"-placement", "typo"},
		"n":         {"-n", "0"},
		"protocol":  {"-model", "weighted", "-protocol", "literal"},
	} {
		t.Run(name, func(t *testing.T) {
			sock := filepath.Join(t.TempDir(), "bad.sock")
			out, err := lbshard(t, append(bad, "-shards", "2", "-socket", sock, "-spawn")...)
			if err == nil {
				t.Fatalf("lbshard %v succeeded:\n%s", bad, out)
			}
			if bytes.Contains(out, []byte("cluster:")) || bytes.Contains(out, []byte("EOF")) {
				t.Fatalf("lbshard %v reached the workers before failing:\n%s", bad, out)
			}
			if _, serr := os.Stat(sock); serr == nil {
				t.Fatalf("lbshard %v listened before failing", bad)
			}
		})
	}
}

// TestProcessTCP runs the cluster over TCP loopback — the coordinator
// resolves the :0 ephemeral port and advertises it to spawned workers.
func TestProcessTCP(t *testing.T) {
	out := mustRun(t,
		"-graph", "ring", "-n", "16", "-tasks", "400", "-seed", "3",
		"-rounds", "30", "-shards", "2",
		"-socket", "tcp:127.0.0.1:0", "-spawn", "-verify")
	if !bytes.Contains(out, []byte("verify: OK")) {
		t.Fatalf("no verify line in output:\n%s", out)
	}
}

// killAndResume runs the full kill-tolerance scenario for one model:
// a reference run, then a run whose first worker SIGKILLs itself after
// round 25 (the coordinator must fail, leaving the round-20 checkpoint),
// then a -resume run that must reproduce the reference byte for byte.
func killAndResume(t *testing.T, model string) {
	dir := t.TempDir()
	base := []string{
		"-graph", "torus", "-n", "16", "-tasks", "800", "-seed", "9",
		"-model", model, "-rounds", "60", "-trace", "7", "-shards", "2",
		"-socket", filepath.Join(dir, "lb.sock"), "-spawn",
	}
	ref := filepath.Join(dir, "ref.json")
	mustRun(t, append(base, "-result", ref)...)

	ck := filepath.Join(dir, "run.ckpt")
	out, err := lbshard(t, append(base, "-checkpoint", ck, "-checkpoint-every", "10", "-killafter", "25")...)
	if err == nil {
		t.Fatalf("coordinator survived a SIGKILLed worker:\n%s", out)
	}
	if _, serr := os.Stat(ck); serr != nil {
		t.Fatalf("no checkpoint left behind: %v", serr)
	}

	res := filepath.Join(dir, "resumed.json")
	out = mustRun(t, append(base, "-checkpoint", ck, "-resume", "-verify", "-result", res)...)
	if !bytes.Contains(out, []byte("verify: OK")) {
		t.Fatalf("no verify line in resumed output:\n%s", out)
	}
	if !bytes.Equal(readFile(t, ref), readFile(t, res)) {
		t.Fatal("resumed result differs from the uninterrupted run")
	}
}

func TestKillAndResumeUniform(t *testing.T)  { killAndResume(t, "uniform") }
func TestKillAndResumeWeighted(t *testing.T) { killAndResume(t, "weighted") }
