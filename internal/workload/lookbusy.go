// Package workload implements the paper's workload generators: lookbusy CPU
// hogs, netperf TCP_RR (Figure 3), TestDFSIO read/write (Figures 11–13), and
// the application studies — HBase PerformanceEvaluation, a Hive select, and
// a Sqoop export (Tables 2–3).
package workload

import (
	"time"

	"vread/internal/cluster"
	"vread/internal/sim"
)

// TagLookbusy marks hog cycles in the metrics registry.
const TagLookbusy = "lookbusy"

// StartLookbusy runs a lookbusy-style load generator in the VM: it holds
// the vCPU busy for target fraction of each period, indefinitely. The paper
// uses 85% hogs in its 4-VM scenarios.
func StartLookbusy(vm *cluster.VM, target float64, period time.Duration) *sim.Proc {
	if target < 0 || target > 1 {
		panic("workload: lookbusy target must be in [0,1]")
	}
	if period == 0 {
		period = 20 * time.Millisecond
	}
	busy := time.Duration(float64(period) * target)
	idle := period - busy
	return vm.Kernel.Env().Go("lookbusy:"+vm.Name, func(p *sim.Proc) {
		for {
			if busy > 0 {
				vm.VCPU.Run(p, vm.Host.CPU.CyclesFor(busy), TagLookbusy)
			}
			if idle > 0 {
				p.Sleep(idle)
			}
		}
	})
}
