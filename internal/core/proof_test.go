package core

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ring/internal/proto"
	"ring/internal/replog"
)

// ackMutations are the ways to acknowledge ahead of a barrier that the
// deleted ackorder analyzer had a diagnostic for (its six fixture
// shapes), and the seventh it never looked at, each as an edit of this
// package. want is what the compiler must say: the proof type the edit
// could not produce, or the output path that no longer exists.
var ackMutations = []struct {
	name, file, old, new, want string
}{
	{"early ack", "coord.go",
		"\tn.doWrite(from, m.Req, replyPut, shard,",
		"\tn.replyOK(from, m.Req, 1)\n\tn.doWrite(from, m.Req, replyPut, shard,",
		"want (replog.Quorum, string, proto.ReqID, proto.Version)"},
	{"ack on one branch", "coord.go",
		"\tif q, done := cs.tracker.Open(seq, n.quorumAcks(st.info.Scheme)); done {",
		"\tif tombstone {\n\t\tn.commitEntry(st, cs, key, ver, replyTo, req, kind, n.now)\n\t\treturn true\n\t}\n\tif q, done := cs.tracker.Open(seq, n.quorumAcks(st.info.Scheme)); done {",
		"not enough arguments in call to n.commitEntry"},
	{"RepAck before the append", "redundant.go",
		"\tn.ackAppend(from, n.persistAppend(st, m.Shard, e))\n}\n\n// handleParityUpdate",
		"\tn.ackAppend(from)\n\tn.persistAppend(st, m.Shard, e)\n}\n\n// handleParityUpdate",
		"want (string, logged)"},
	{"persisted but no quorum", "coord.go",
		"\tif q, done := cs.tracker.Open(seq, n.quorumAcks(st.info.Scheme)); done {",
		"\tif q := n.quorumAcks(st.info.Scheme); q >= 0 {",
		"cannot use q (variable of type int) as replog.Quorum value in argument to n.commitEntry"},
	{"ack through a helper", "coord.go",
		"\tn.doWrite(from, m.Req, replyPut, shard,",
		"\tfunc(q replog.Quorum) { n.replyOK(q, from, m.Req, 1) }()\n\tn.doWrite(from, m.Req, replyPut, shard,",
		"want (replog.Quorum)"},
	{"StOK forwarded through a status parameter", "move.go",
		"\t\tn.replyOK(replog.Committed(&rec), from, m.Req, ref.Version)",
		"\t\tn.refuse(from, m.Req, proto.StOK)",
		"as refusal value in argument to n.refuse"},
	{"outputs taken before the sync", "host.go",
		"\t\t\th.Node.HandleMessage(now, from, msg)",
		"\t\t\th.Pack(h.Node.HandleMessage(now, from, msg), nil)",
		"h.Node.HandleMessage(now, from, msg) (no value) used as value"},
}

// TestAckBeforeBarrierDoesNotCompile is the check that runs before the
// code does: every mutation above, applied with go build -overlay, must
// fail to build with the message that names what it lacks. The
// unmutated overlay builds, so a failure is the mutation's.
func TestAckBeforeBarrierDoesNotCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go build once per mutation")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	build := func(t *testing.T, file, old, new string) (string, error) {
		path := filepath.Join(root, "internal", "core", file)
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(src), old); n != 1 {
			t.Fatalf("%s: mutation site occurs %d times, want 1:\n%s", file, n, old)
		}
		dir := t.TempDir()
		mutated := filepath.Join(dir, file)
		if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), old, new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		overlay, _ := json.Marshal(map[string]map[string]string{"Replace": {path: mutated}})
		if err := os.WriteFile(filepath.Join(dir, "overlay.json"), overlay, 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command("go", "build", "-overlay", filepath.Join(dir, "overlay.json"), "./internal/core")
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	if out, err := build(t, "coord.go", "// handlePut coordinates", "// handlePut  coordinates"); err != nil {
		t.Fatalf("the unmutated overlay does not build: %v\n%s", err, out)
	}
	for _, m := range ackMutations {
		t.Run(m.name, func(t *testing.T) {
			out, err := build(t, m.file, m.old, m.new)
			if err == nil {
				t.Fatal("the mutation builds")
			}
			if !strings.Contains(out, m.want) {
				t.Fatalf("the build failed without naming %q:\n%s", m.want, out)
			}
			t.Logf("%s", strings.TrimSpace(out))
		})
	}
}

// TestZeroProofFailsLoudly: the zero value is the one proof Go lets this
// package write, and every sink rejects it.
func TestZeroProofFailsLoudly(t *testing.T) {
	h := newHarness(t, figure3Spec())
	h.put("zk", []byte("v"), mgREP3)
	n, _ := h.coordinatorOf("zk")
	st := n.mg[mgREP3]
	cs := st.coord[n.shardOf("zk")]
	for name, sink := range map[string]func(){
		"replyOK":     func() { n.replyOK(replog.Quorum{}, "client/z", 1, 1) },
		"commitEntry": func() { n.commitEntry(replog.Quorum{}, st, cs, "zk", 1, "client/z", 1, replyPut, 0) },
		"refuse":      func() { n.refuse("client/z", 1, refusal(proto.StOK)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s took a zero proof", name)
				}
			}()
			sink()
		}()
	}
}

// TestProofPins holds what the types cannot: outside replog, the forger
// is named only inside core's two ChaosUnsafe* blocks, and no non-test
// code writes a replog.Quorum down (a literal or a var is the zero value).
func TestProofPins(t *testing.T) {
	forged, inChaos := 0, 0
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") ||
			strings.Contains(path, "testdata") || filepath.Base(filepath.Dir(path)) == "replog" {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		var chaosEnd token.Pos // where the ChaosUnsafe* block being walked ends
		ast.Inspect(f, func(n ast.Node) bool {
			var typ ast.Expr
			switch n := n.(type) {
			case *ast.IfStmt:
				if c, ok := n.Cond.(*ast.SelectorExpr); ok && strings.HasPrefix(c.Sel.Name, "ChaosUnsafe") && f.Name.Name == "core" {
					chaosEnd = n.Body.End()
				}
			case *ast.SelectorExpr:
				if n.Sel.Name == "ChaosForgeQuorum" {
					forged++
					if n.Pos() < chaosEnd {
						inChaos++
					}
				}
			case *ast.CompositeLit:
				typ = n.Type
			case *ast.ValueSpec:
				typ = n.Type
			}
			if s, ok := typ.(*ast.SelectorExpr); ok && s.Sel.Name == "Quorum" {
				t.Errorf("%s: a replog.Quorum written down outside replog", path)
			}
			return true
		})
		return nil
	})
	if err != nil || forged != 2 || inChaos != 2 {
		t.Fatalf("ChaosForgeQuorum named %d times outside replog, %d inside a ChaosUnsafe* block, want 2 and 2 (walk: %v)", forged, inChaos, err)
	}
}
