// Quickstart: synthesise a 3-lead ECG record, run the node at every
// abstraction level of the paper's Figure 1 ladder, and print how the
// transmitted bandwidth, node power and battery lifetime change as more
// intelligence moves on-node, then the first beats the delineation
// level finds. paper.Figure1 fixes the record and runs the ladder.
//
//	go run ./examples/quickstart
package main

import (
	"log"

	"wbsn/internal/paper"
)

func main() {
	if err := paper.Print(paper.Figure1()); err != nil {
		log.Fatal(err)
	}
}
