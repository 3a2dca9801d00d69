// The paper's §5.2 application studies as one program: an HBase
// PerformanceEvaluation table (scan / sequential read / random read), a
// Hive range select, and a Sqoop export into an external MySQL — all on the
// hybrid 4-VM setup, vanilla vs vRead.
package main

import (
	"fmt"
	"log"

	"vread"
)

func main() {
	opt := vread.Options{Seed: 5, Scale: 0.02}

	for i, id := range []string{"table2", "table3"} {
		e, ok := vread.LookupExperiment(id)
		if !ok {
			log.Fatalf("no experiment %q", id)
		}
		out, err := e.Render(opt, false)
		if err != nil {
			log.Fatal(err)
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(out)
	}

	fmt.Println("\nEvery byte these workloads consumed flowed through the simulated")
	fmt.Println("HDFS — the improvements come purely from vRead's shortcut, not from")
	fmt.Println("modeling shortcuts: turn vRead off and the numbers revert.")
}
