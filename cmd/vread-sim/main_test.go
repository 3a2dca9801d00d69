package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vread"
)

// TestParseFlagsRejects covers values that used to panic (-freq-ghz -1 in
// cpusched.New), hang (-buffer-kb 0 read zero bytes forever), print nonsense
// (-size-mb -1 gave negative MB/s) or run something else (-transport bogus ran
// RDMA): each must now fail with an error naming the flag.
func TestParseFlagsRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-freq-ghz", "-1"},
		{"-freq-ghz", "0"},
		{"-freq-ghz", "1e300"},
		{"-buffer-kb", "0"},
		{"-buffer-kb", "-4"},
		{"-size-mb", "-1"},
		{"-size-mb", "0"},
		{"-size-mb", "9007199254740992"},
		{"-transport", "bogus"},
		{"-scenario", "bogus"},
	} {
		_, err := parseFlags(args)
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("parseFlags(%q) = %v, want an error naming %s", args, err, args[0])
		}
	}
}

func TestParseFlagsAccepts(t *testing.T) {
	c, err := parseFlags(nil)
	if err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	opt := c.setup.Opt
	if opt.FreqHz != 2_000_000_000 || c.sizeMB != 256 || c.bufferKB != 1024 || opt.VReadConfig.Transport != vread.TransportRDMA || c.setup.Place != vread.Colocated {
		t.Errorf("defaults = %+v", c)
	}
	c, err = parseFlags([]string{"-freq-ghz", "3.4", "-transport", "tcp", "-scenario", "remote", "-buffer-kb", "64"})
	if err != nil {
		t.Fatal(err)
	}
	if c.setup.Opt.VReadConfig.Transport != vread.TransportTCP || c.setup.Place != vread.Remote || c.bufferKB != 64 {
		t.Errorf("parsed = %+v", c)
	}
	// -scenario takes every name a scenario file does.
	if c, err = parseFlags([]string{"-scenario", "colocated"}); err != nil || c.setup.Place != vread.Colocated {
		t.Errorf("-scenario colocated: %v, %+v", err, c)
	}
}

// TestRunRejectsUnfilledReport: -slo and -blackout used to be silently
// ignored unless the -config scenario had the matching block. Each must now
// fail with an error naming the flag, before running anything or writing
// the report.
func TestRunRejectsUnfilledReport(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-slo", []string{"-size-mb", "1"}},
		{"-slo", []string{"-config", "../../scenarios/migrate-smoke.json"}},
		{"-blackout", []string{"-size-mb", "1"}},
		{"-blackout", []string{"-config", "../../scenarios/scale-smoke.json"}},
	} {
		out := filepath.Join(dir, "report.json")
		err := run(append(tc.args, tc.flag, out))
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("run(%q %s) = %v, want an error naming %s", tc.args, tc.flag, err, tc.flag)
		}
		if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
			t.Errorf("run(%q %s) wrote %s", tc.args, tc.flag, out)
		}
	}
}

// TestRunConfigPrintsFiniteUtilization: a -config scenario that leaves
// freq_ghz out used to print +Inf% for every entity and tag, because run
// divided the cycles by the un-defaulted frequency of the parsed options.
func TestRunConfigPrintsFiniteUtilization(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "scenario.json")
	if err := os.WriteFile(cfg, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = run([]string{"-config", cfg, "-size-mb", "1"})
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "CPU utilization") || strings.Contains(string(blob), "Inf") {
		t.Errorf("run -config %s printed:\n%s", cfg, blob)
	}
}
