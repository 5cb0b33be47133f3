// Command deadcheck lists the non-test functions under internal/ that no
// program links. It builds every binary of the repository (cmd/*,
// examples/* and the benchmark module) with inlining off
// (-gcflags=all=-l), so a function that is called at all keeps its own
// text symbol, reads the symbol tables with go tool nm, and prints one
// line per function declared in a non-test internal/ file whose symbol
// no binary contains:
//
//	wbsn/internal/cs.EncodeQ15 22
//
// that is, the linker's name of the function and the number of source
// lines of its declaration. Lines are sorted. The count and total go to
// standard error. Run it from the repository root:
//
//	go run ./scripts/deadcheck > testdata/unlinked.txt
//
// CI compares its output with the checked-in testdata/unlinked.txt.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const module = "wbsn"

func main() {
	if _, err := os.Stat("go.mod"); err != nil {
		fail("run from the repository root: %v", err)
	}
	decls, err := declaredFuncs("internal")
	if err != nil {
		fail("%v", err)
	}
	linked, err := linkedSymbols()
	if err != nil {
		fail("%v", err)
	}
	var out []string
	total := 0
	for sym, lines := range decls {
		if !linked[sym] {
			out = append(out, fmt.Sprintf("%s %d", sym, lines))
			total += lines
		}
	}
	sort.Strings(out)
	w := bufio.NewWriter(os.Stdout)
	for _, l := range out {
		fmt.Fprintln(w, l)
	}
	w.Flush()
	fmt.Fprintf(os.Stderr, "deadcheck: %d unlinked functions, %d lines, of %d declared\n", len(out), total, len(decls))
}

// declaredFuncs maps the linker name of every function and method
// declared in a non-test file under root to its declaration's line count.
func declaredFuncs(root string) (map[string]int, error) {
	decls := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module + "/" + filepath.ToSlash(filepath.Dir(path))
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			lines := fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1
			decls[pkg+"."+symbolName(fn)] = lines
		}
		return nil
	})
	return decls, err
}

// symbolName is the name go tool nm prints for fn after its package
// path, with type arguments dropped: F, T.M or (*T).M.
func symbolName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	ptr := false
	if s, ok := t.(*ast.StarExpr); ok {
		ptr, t = true, s.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	name := t.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")." + fn.Name.Name
	}
	return name + "." + fn.Name.Name
}

// linkedSymbols builds every binary with inlining off into a temporary
// directory and returns the set of text symbols they contain, with type
// arguments dropped.
func linkedSymbols() (map[string]bool, error) {
	dir, err := os.MkdirTemp("", "deadcheck")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	flags := []string{"build", "-gcflags=all=-l", "-buildvcs=false"}
	if err := run("", "go", append(flags, "-o", dir+"/", "./cmd/...", "./examples/...")...); err != nil {
		return nil, err
	}
	if err := run("benchmark", "go", append(flags, "-o", filepath.Join(dir, "benchmark"), ".")...); err != nil {
		return nil, err
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	linked := map[string]bool{}
	for _, b := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, b.Name())).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %v", b.Name(), err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// address type name; the name may contain spaces inside
			// type arguments.
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				linked[dropTypeArgs(f[2])] = true
			}
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return linked, nil
}

// dropTypeArgs removes every bracketed type-argument list from a symbol
// name, so F[go.shape.float64] and (*T[...]).M match F and (*T).M.
func dropTypeArgs(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func run(dir, name string, args ...string) error {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %v", name, strings.Join(args, " "), err)
	}
	return nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "deadcheck: "+format+"\n", args...)
	os.Exit(1)
}
