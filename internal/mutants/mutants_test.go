//go:build mutants

package mutants

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMutantsAreKilled builds and tests every catalogue mutant, one go test
// process at a time. The mutated file is written to a temporary directory
// and swapped in with go's -overlay flag, so the tree is never touched. A
// mutant is killed only when its test exits non-zero, prints the wanted
// words, and built: any other outcome, a compile error included, is a
// survivor and fails the test.
func TestMutantsAreKilled(t *testing.T) {
	abs, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range catalogue {
		t.Run(m.name, func(t *testing.T) {
			file := filepath.Join(abs, m.file)
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Count(string(src), m.from) != 1 {
				t.Fatalf("fragment %q does not occur exactly once in %s", m.from, m.file)
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(file))
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.from, m.to, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {file: mutated}})
			if err != nil {
				t.Fatal(err)
			}
			overlayFile := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command("go", "test", "-count=1", "-timeout=5m", "-overlay", overlayFile,
				"-run", "^"+m.run+"$", "./"+m.pkg)
			cmd.Dir = abs
			out, err := cmd.CombinedOutput()
			text := string(out)
			_, exited := err.(*exec.ExitError)
			switch {
			case err != nil && !exited:
				t.Fatalf("running go test: %v", err)
			case strings.Contains(text, "[build failed]") || strings.Contains(text, "[setup failed]"):
				t.Errorf("survived: the mutant does not build\n%s", text)
			case err == nil:
				t.Errorf("survived: %s passed on the mutant", m.run)
			case !strings.Contains(text, m.want):
				t.Errorf("survived: %s failed without printing %q\n%s", m.run, m.want, text)
			default:
				t.Logf("killed by %s: %s", m.run, lineWith(text, m.want))
			}
		})
	}
}

// lineWith returns the first line of text containing sub, trimmed.
func lineWith(text, sub string) string {
	for line := range strings.Lines(text) {
		if strings.Contains(line, sub) {
			return strings.TrimSpace(line)
		}
	}
	return ""
}
