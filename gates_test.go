package catfish_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestGates checks .github/gates.sh against the code: every package it
// names exists, every alternative of every -run pattern matches a Test or
// Fuzz function those packages declare, and every sim golden and quick
// table test is gated. Only _test.go files are parsed; nothing is built.
func TestGates(t *testing.T) {
	for _, p := range gateProblems(t, ".", ".github/gates.sh") {
		t.Error(p)
	}
}

// goldenTest names the tests that pin the deterministic sim.
var goldenTest = regexp.MustCompile(`^Test\w*(Golden|Quick)`)

type gateLine struct {
	line int
	// tops holds each alternative's top-level part (the text before any
	// '/'), which must name a declared test.
	tops []*regexp.Regexp
	pkgs []string
}

// gateProblems returns one line per problem with the gate script at
// script, whose package paths are relative to root.
func gateProblems(t *testing.T, root, script string) []string {
	t.Helper()
	gates, problems := parseGates(t, filepath.Join(root, script))
	declared := map[string][]string{} // package dir → Test and Fuzz names
	for _, g := range gates {
		matched := make([]bool, len(g.tops))
		for _, pkg := range g.pkgs {
			names, ok := declared[pkg]
			if !ok {
				if names, ok = testNames(t, filepath.Join(root, pkg)); !ok {
					problems = append(problems, fmt.Sprintf("%s:%d: package %s does not exist", script, g.line, pkg))
					continue
				}
				declared[pkg] = names
			}
			for i, re := range g.tops {
				matched[i] = matched[i] || slices.ContainsFunc(names, re.MatchString)
			}
		}
		for i, re := range g.tops {
			if !matched[i] {
				problems = append(problems, fmt.Sprintf("%s:%d: %q matches no Test or Fuzz function in %s", script, g.line, re, strings.Join(g.pkgs, " ")))
			}
		}
	}

	// Every golden and quick table test is run by some gate line.
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix("./"+filepath.ToSlash(rel)+"/", "./")
		names, _ := testNames(t, path)
		for _, name := range names {
			if goldenTest.MatchString(name) && !slices.ContainsFunc(gates, func(g gateLine) bool { return g.runs(pkg, name) }) {
				problems = append(problems, fmt.Sprintf("%s: no gate line runs %s in %s", script, name, pkg))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return problems
}

// runs reports whether the gate runs test name of package pkg.
func (g gateLine) runs(pkg, name string) bool {
	return slices.Contains(g.pkgs, pkg) && slices.ContainsFunc(g.tops, func(re *regexp.Regexp) bool { return re.MatchString(name) })
}

// parseGates reads the gate lines of a script: gate COUNT race|norace
// PATTERN PACKAGE... with an optional trailing comment.
func parseGates(t *testing.T, script string) ([]gateLine, []string) {
	t.Helper()
	f, err := os.Open(script)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var gates []gateLine
	var problems []string
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		w := shellWords(sc.Text())
		if len(w) == 0 || w[0] != "gate" {
			continue
		}
		if len(w) < 5 {
			problems = append(problems, fmt.Sprintf("%s:%d: want gate COUNT race|norace PATTERN PACKAGE...", script, n))
			continue
		}
		if c, err := strconv.Atoi(w[1]); err != nil || c < 1 {
			problems = append(problems, fmt.Sprintf("%s:%d: count %q is not a positive number", script, n, w[1]))
		}
		if w[2] != "race" && w[2] != "norace" {
			problems = append(problems, fmt.Sprintf("%s:%d: %q is neither race nor norace", script, n, w[2]))
		}
		g := gateLine{line: n, pkgs: w[4:]}
		// go test splits -run at each top-level '|' into alternatives and
		// each alternative at '/' into levels; the first level names tests.
		for _, alt := range splitTop(w[3], '|') {
			re, err := regexp.Compile(splitTop(alt, '/')[0])
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s:%d: %v", script, n, err))
				continue
			}
			g.tops = append(g.tops, re)
		}
		gates = append(gates, g)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return gates, problems
}

// shellWords splits a line into words as the shell would for the plain and
// single-quoted words gate lines use, dropping a trailing comment.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	quoted, in := false, false
	for _, r := range line {
		switch {
		case r == '\'':
			quoted, in = !quoted, true
		case quoted:
			cur.WriteRune(r)
		case r == ' ' || r == '\t':
			if in {
				words = append(words, cur.String())
				cur.Reset()
				in = false
			}
		case r == '#' && !in:
			return words
		default:
			cur.WriteRune(r)
			in = true
		}
	}
	if in {
		words = append(words, cur.String())
	}
	return words
}

// splitTop splits s at each sep outside brackets and parentheses.
func splitTop(s string, sep rune) []string {
	var parts []string
	depth, start := 0, 0
	for i, r := range s {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, s[start:])
}

// testNames lists the Test and Fuzz functions the _test.go files in dir
// declare; ok is false when dir does not exist.
func testNames(t *testing.T, dir string) (names []string, ok bool) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if st, serr := os.Stat(dir); err != nil || serr != nil || !st.IsDir() {
		return nil, false
	}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Recv == nil && (strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names, true
}

// TestGatesFailOnFixtures shows each gate check failing when it should: a
// pattern naming an undeclared test, a missing package, an ungated golden.
func TestGatesFailOnFixtures(t *testing.T) {
	if p := gateProblems(t, "testdata/gates", "ok.sh"); len(p) != 0 {
		t.Errorf("ok.sh: %q, want no problems", p)
	}
	got := strings.Join(gateProblems(t, "testdata/gates", "broken.sh"), "\n")
	for _, want := range []string{
		`broken.sh:1: "TestRenamed" matches no Test or Fuzz function in ./pkg/`,
		`broken.sh:2: package ./missing/ does not exist`,
		`broken.sh: no gate line runs TestBetaGolden in ./pkg/`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("broken.sh problems:\n%s\nwant a line %q", got, want)
		}
	}
}
