package experiments

import "testing"

// FuzzParseOptions: scenario files are untrusted config, so no input may
// panic ParseOptions, an accepted file's frequency and block size must be
// non-negative, and every fault rule of it must be in range. Seeds live in
// testdata/fuzz/FuzzParseOptions.
func FuzzParseOptions(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		opt, _, _, _, err := ParseOptions(raw)
		if err != nil {
			return
		}
		if opt.FreqHz < 0 || opt.BlockSize < 0 {
			t.Fatalf("ParseOptions(%q) accepted FreqHz %d, BlockSize %d; want both >= 0", raw, opt.FreqHz, opt.BlockSize)
		}
		for _, r := range opt.Faults {
			if !(r.Prob >= 0) || r.AfterN < 0 || r.MaxFires < 0 || r.Delay < 0 {
				t.Fatalf("ParseOptions(%q) accepted out-of-range fault rule %+v", raw, r)
			}
		}
	})
}
