// Package detfix exercises the determinism analyzer: wall-clock reads,
// global math/rand draws, and map iteration order reaching emitted output.
package detfix

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

func Clocky() time.Duration {
	start := time.Now()          // want `time.Now consults the wall clock`
	time.Sleep(time.Millisecond) // want `time.Sleep consults the wall clock`
	return time.Since(start)     // want `time.Since consults the wall clock`
}

func Roll() int {
	return rand.Intn(6) // want `math/rand.Intn draws from a source no run seed controls`
}

// Seeded uses the per-run source idiom: a *rand.Rand type mention and method
// calls on it are fine.
func Seeded(r *rand.Rand) int {
	return r.Intn(6)
}

// AllowedClock exercises the escape hatch: the directive suppresses the
// wall-clock finding on the next line.
func AllowedClock() time.Duration {
	//lint:allow determinism(fixture exercises the escape hatch)
	return time.Since(time.Time{})
}

// EmptyReason shows that a reason-less directive is itself a finding and
// suppresses nothing.
func EmptyReason() time.Time {
	//lint:allow determinism() // want `needs a reason`
	return time.Now() // want `time.Now consults the wall clock`
}

func PrintAll(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want `fmt.Printf inside a map-range loop`
	}
}

func Leaky(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to "keys" inside a map-range loop`
	}
	return keys
}

// Collected is the sanctioned idiom: collect, sort, then use.
func Collected(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
