// Package paper regenerates the six results the paper's evaluation
// (Section V) rests on: Figures 1, 5, 6 and 7 and the delineation
// (Text-1) and atrial-fibrillation (Text-2) claims. Each result has one
// generator whose setup is fixed, and one command that prints it:
// examples/quickstart (Figure1), csbench -fig5 and -fig6 (Figure5,
// Figure6), wbsn-sim (Figure7), delineate (Text1) and afdetect (Text2).
// EXPERIMENTS.md pins each result's text byte for byte.
package paper

import "fmt"

// Result is what every generator returns: String renders the text the
// result's command prints, and Shape is the claim's one verdict.
type Result interface {
	String() string
	Shape() error
}

// Print writes a generator's text to standard output and returns the
// generator's error, or else the result's shape verdict.
func Print(r Result, err error) error {
	if err != nil {
		return err
	}
	fmt.Print(r)
	return r.Shape()
}

// verdict renders a Shape result as the text's verdict line: pass names
// what held.
func verdict(err error, pass string) string {
	if err != nil {
		return "shape check FAIL: " + err.Error() + "\n"
	}
	return "shape check PASS: " + pass + "\n"
}
