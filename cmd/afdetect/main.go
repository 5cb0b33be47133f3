// Command afdetect reproduces the paper's atrial-fibrillation detection
// result (Section V, "Text-2"): the embedded fuzzy AF detector is run
// over a balanced set of synthetic NSR (a third with ectopy) and AF
// records, and the record-level sensitivity and specificity are compared
// against the paper's 96% / 93%. It exits 1 when the shape check fails.
//
// Usage:
//
//	afdetect
package main

import (
	"fmt"
	"os"

	"wbsn/internal/paper"
)

func main() {
	if err := paper.Print(paper.Text2()); err != nil {
		fmt.Fprintln(os.Stderr, "afdetect:", err)
		os.Exit(1)
	}
}
