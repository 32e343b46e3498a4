package lint_test

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dataai/internal/lint"
)

// writeTree materializes a map of relative path → contents under dir.
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for rel, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// otherOS returns a real GOOS that is not the host's, for exercising
// filename and //go:build exclusions that must fire on any machine.
func otherOS(t *testing.T) string {
	t.Helper()
	for _, os := range []string{"windows", "plan9", "linux"} {
		if os != runtime.GOOS {
			return os
		}
	}
	t.Fatal("no alternative GOOS")
	return ""
}

// TestLoadReportAccountsForSkips pins the LoadWithReport contract: a
// test-only package directory and every constraint-excluded file show
// up in the report with a reason — the loader drops nothing silently.
func TestLoadReportAccountsForSkips(t *testing.T) {
	alt := otherOS(t)
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod":                "module tmp\n\ngo 1.22\n",
		"a/a.go":                "package a\n\nfunc A() int { return 1 }\n",
		"a/gated.go":            "//go:build neverever\n\npackage a\n\nfunc Gated() {}\n",
		"a/byos_" + alt + ".go": "package a\n\nfunc ByOS() {}\n",
		"testonly/only_test.go": "package testonly\n\nimport \"testing\"\n\nfunc TestNothing(t *testing.T) {}\n",
	})

	pkgs, report, err := lint.LoadWithReport(dir, "./...")
	if err != nil {
		t.Fatalf("LoadWithReport: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].ImportPath != "tmp/a" {
		var paths []string
		for _, p := range pkgs {
			paths = append(paths, p.ImportPath)
		}
		t.Fatalf("loaded %v, want exactly [tmp/a]", paths)
	}
	if len(pkgs[0].Files) != 1 {
		t.Errorf("tmp/a loaded %d files, want 1 (a.go only)", len(pkgs[0].Files))
	}

	if len(report.TestOnlyDirs) != 1 || filepath.Base(report.TestOnlyDirs[0]) != "testonly" {
		t.Errorf("TestOnlyDirs = %v, want the testonly dir", report.TestOnlyDirs)
	}
	reasons := map[string]string{}
	for _, sf := range report.SkippedFiles {
		reasons[filepath.Base(sf.Path)] = sf.Reason
	}
	if len(reasons) != 2 {
		t.Fatalf("SkippedFiles = %v, want gated.go and byos_%s.go", report.SkippedFiles, alt)
	}
	if r := reasons["gated.go"]; !strings.Contains(r, "neverever") {
		t.Errorf("gated.go reason = %q, want the unsatisfied constraint named", r)
	}
	if r := reasons["byos_"+alt+".go"]; !strings.Contains(r, "GOOS="+alt) {
		t.Errorf("byos_%s.go reason = %q, want the filename GOOS constraint named", alt, r)
	}
}

// TestLoadLegacyPlusBuildConstraint pins that pre-//go:build files are
// still gated: the conjunction of // +build lines is evaluated.
func TestLoadLegacyPlusBuildConstraint(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod":    "module tmp\n\ngo 1.22\n",
		"b/b.go":    "package b\n\nfunc B() {}\n",
		"b/tagd.go": "// +build sometag\n\npackage b\n\nfunc Tagged() {}\n",
	})
	pkgs, report, err := lint.LoadWithReport(dir, "./...")
	if err != nil {
		t.Fatalf("LoadWithReport: %v", err)
	}
	if len(pkgs) != 1 || len(pkgs[0].Files) != 1 {
		t.Fatalf("want one package with one file, got %d packages", len(pkgs))
	}
	if len(report.SkippedFiles) != 1 || filepath.Base(report.SkippedFiles[0].Path) != "tagd.go" {
		t.Errorf("SkippedFiles = %v, want tagd.go", report.SkippedFiles)
	}
}

// TestLoadFailsOnTypeError pins that a package which does not compile
// is a load error naming the package and the position, not a package
// analyzed on partial type facts: a caller of a deleted function in
// another package must stop the suite, as go vet would.
func TestLoadFailsOnTypeError(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod":     "module tmp\n\ngo 1.22\n",
		"dep/dep.go": "package dep\n\nfunc Kept() int { return 1 }\n",
		"use/use.go": "package use\n\nimport \"tmp/dep\"\n\nfunc Use() int { return dep.Gone() }\n",
	})
	pkgs, _, err := lint.LoadWithReport(dir, "./...")
	if err == nil {
		t.Fatalf("LoadWithReport loaded %d packages with a type error, want an error", len(pkgs))
	}
	for _, want := range []string{"tmp/use", filepath.Join("use", "use.go") + ":5:", "dep.Gone"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestLoadNonRecursiveTestOnlyPattern pins the Load edge case that used
// to error: naming a test-only package directly (no /... wildcard) must
// report it, not fail with "no Go files".
func TestLoadNonRecursiveTestOnlyPattern(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod":                "module tmp\n\ngo 1.22\n",
		"testonly/only_test.go": "package testonly\n",
	})
	pkgs, report, err := lint.LoadWithReport(dir, "./testonly")
	if err != nil {
		t.Fatalf("LoadWithReport(./testonly): %v", err)
	}
	if len(pkgs) != 0 {
		t.Errorf("loaded %d packages from a test-only dir, want 0", len(pkgs))
	}
	if len(report.TestOnlyDirs) != 1 {
		t.Errorf("TestOnlyDirs = %v, want the named dir reported", report.TestOnlyDirs)
	}
}

// TestLoadReportsBenchallRaceFile pins the report against the real
// repo: cmd/benchall gates raceEnabled behind //go:build race /
// !race, and a plain load must take exactly the !race file and account
// for the other. (Before build-constraint evaluation the loader parsed
// both, giving the package a silent duplicate-symbol type error.)
func TestLoadReportsBenchallRaceFile(t *testing.T) {
	pkgs, report, err := lint.LoadWithReport("../..", "./cmd/benchall")
	if err != nil {
		t.Fatalf("LoadWithReport: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	found := false
	for _, sf := range report.SkippedFiles {
		if filepath.Base(sf.Path) == "race_on.go" {
			found = true
			if !strings.Contains(sf.Reason, "race") {
				t.Errorf("race_on.go reason = %q, want the race constraint named", sf.Reason)
			}
		}
		if filepath.Base(sf.Path) == "race_off.go" {
			t.Errorf("race_off.go skipped (%s); the !race file must load", sf.Reason)
		}
	}
	if !found {
		t.Errorf("race_on.go not in SkippedFiles: %v", report.SkippedFiles)
	}
}
