// Package workload implements the paper's workload generators: lookbusy CPU
// hogs, netperf TCP_RR (Figure 3), TestDFSIO read/write (Figures 11–13), and
// the application studies — HBase PerformanceEvaluation, a Hive select, and
// a Sqoop export (Tables 2–3).
package workload

import (
	"time"

	"vread/internal/cluster"
	"vread/internal/cpusched"
)

// TagLookbusy marks hog cycles in the metrics registry.
const TagLookbusy = "lookbusy"

// StartLookbusy runs a lookbusy-style load generator in the VM: it holds
// the vCPU busy for target fraction of each period, indefinitely. The paper
// uses 85% hogs in its 4-VM scenarios. It is a self-rescheduling handler
// chain that fires the events a busy-then-sleep Proc loop would.
func StartLookbusy(vm *cluster.VM, target float64, period time.Duration) {
	if target < 0 || target > 1 {
		panic("workload: lookbusy target must be in [0,1]")
	}
	if period == 0 {
		period = 20 * time.Millisecond
	}
	busy := time.Duration(float64(period) * target)
	env := vm.Kernel.Env()
	lb := &lookbusy{vm: vm, cycles: vm.Host.CPU.CyclesFor(busy), idle: period - busy}
	lb.st.Bind(env, lb)
	env.Schedule(0, lb.st.Direct((*lookbusy).run))
}

// lookbusy is one hog: cycles of work, then idle, forever.
type lookbusy struct {
	vm     *cluster.VM
	cycles int64
	idle   time.Duration
	st     cpusched.Steps[*lookbusy]
}

//lint:hotpath
func (lb *lookbusy) run() { lb.st.Charge(lb.vm.VCPU, lb.cycles, TagLookbusy, nil, (*lookbusy).rest) }

//lint:hotpath
func (lb *lookbusy) rest() {
	if lb.idle == 0 {
		lb.run()
		return
	}
	lb.vm.Kernel.Env().Schedule(lb.idle, lb.st.Direct((*lookbusy).run))
}
