// Command csbench regenerates the compressed-sensing results of the
// paper's evaluation: the Figure 5 SNR-vs-CR quality curves (single-lead
// vs multi-lead joint recovery) and the Figure 6 node energy breakdown.
// It prints each figure's text with its shape verdict and exits 1 when a
// shape check fails.
//
// Usage:
//
//	csbench -fig5            # SNR vs CR sweep (slow: full reconstructions)
//	csbench -fig6            # energy breakdown at the quality operating points
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"wbsn/internal/paper"
)

func main() {
	var (
		fig5 = flag.Bool("fig5", false, "run the Figure 5 SNR-vs-CR sweep")
		fig6 = flag.Bool("fig6", false, "run the Figure 6 energy breakdown")
	)
	flag.Parse()
	if !*fig5 && !*fig6 {
		fmt.Fprintln(os.Stderr, "csbench: pass -fig5 and/or -fig6")
		os.Exit(2)
	}
	var err error
	if *fig5 {
		err = paper.Print(paper.Figure5())
	}
	if *fig6 {
		err = errors.Join(err, paper.Print(paper.Figure6()))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "csbench:", err)
		os.Exit(1)
	}
}
