package sim

import (
	"testing"
	"time"
)

// Engine microbenchmarks, in-package so the hot path can be profiled with
// -cpuprofile. The benchmark of record (bench/run.sh) carries the traced
// sim.schedule_fire_ns and sim.proc_sleep_ns rows.

func BenchmarkScheduleFire(b *testing.B) {
	const batch = 1024
	fn := func() {}
	env := NewEnv(1)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += batch {
		k := batch
		if rem := b.N - n; rem < k {
			k = rem
		}
		for j := 0; j < k; j++ {
			env.Schedule(time.Duration(j)*time.Nanosecond, fn)
		}
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleCancel(b *testing.B) {
	const batch = 1024
	fn := func() {}
	env := NewEnv(1)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += batch {
		k := batch
		if rem := b.N - n; rem < k {
			k = rem
		}
		for j := 0; j < k; j++ {
			tm := env.Schedule(time.Duration(j)*time.Nanosecond, fn)
			if j%2 == 1 {
				tm.Cancel()
			}
		}
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleSpread(b *testing.B) {
	const batch = 1024
	fn := func() {}
	env := NewEnv(1)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += batch {
		k := batch
		if rem := b.N - n; rem < k {
			k = rem
		}
		for j := 0; j < k; j++ {
			env.Schedule(time.Duration(j%200+1)*time.Microsecond, fn)
		}
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
