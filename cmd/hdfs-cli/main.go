// Command hdfs-cli runs a script of HDFS operations against a freshly
// booted simulated cluster — a functional demonstration that the whole
// stack (guest kernels, virtio, HDFS, vRead) really stores and returns
// bytes.
//
// Usage:
//
//	hdfs-cli [-vread] [command...]
//
// Commands (semicolon-separated):
//
//	put <path> <sizeKB>    write a file of pattern content
//	get <path>             read a file back and verify every byte
//	head <path> <n>        print the first n bytes (hex)
//	ls                     list files known to the namenode
//	rm <path>              delete a file
//	stat <path>            print size and block locations
//	placement <path>       print shard, ring position and replica fault
//	                       domains per block (needs -shards > 1)
//
// With -shards N (> 1) the namespace is federated behind a router and
// -replication R writes R replicas per block, placed by the consistent-hash
// ring across the testbed's fault domains.
//
// Example:
//
//	hdfs-cli -vread put /a 2048 ; get /a ; stat /a ; rm /a ; ls
//	hdfs-cli -shards 4 -replication 2 put /a 2048 ; placement /a
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"vread"
	"vread/internal/data"
	"vread/internal/metrics"
	"vread/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hdfs-cli:", err)
		os.Exit(1)
	}
}

// run boots the testbed the flags in args describe, runs the script the
// rest of args holds, and prints its output to w.
func run(args []string, w io.Writer) error {
	sc := vread.ScenarioConfig{Seed: 1}
	fs := flag.NewFlagSet("hdfs-cli", flag.ExitOnError)
	fs.BoolVar(&sc.VRead, "vread", false, "enable vRead on the client")
	fs.IntVar(&sc.Shards, "shards", 1, "federate the namespace across this many shards (> 1)")
	fs.IntVar(&sc.Replication, "replication", 1, "replicas per block (testbed supports up to 2)")
	fs.Parse(args)
	script := strings.Join(fs.Args(), " ")
	if script == "" {
		script = "put /demo/hello 1024 ; stat /demo/hello ; get /demo/hello ; ls"
	}
	s, err := sc.Build()
	if err != nil {
		// The error begins with the key, and each key is its flag's name.
		return fmt.Errorf("-%w", err)
	}
	tb := vread.NewTestbed(s.Opt)
	defer tb.Close()

	written := map[string]data.Pattern{}
	err = tb.Run("hdfs-cli", 24*time.Hour, func(p *sim.Proc) error {
		for _, cmd := range strings.Split(script, ";") {
			fields := strings.Fields(cmd)
			if len(fields) == 0 {
				continue
			}
			if err := exec(p, tb, written, w, fields); err != nil {
				return fmt.Errorf("%q: %w", strings.TrimSpace(cmd), err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "(virtual time elapsed: %v)\n", tb.C.Env.Now().Round(time.Microsecond))
	return nil
}

func exec(p *sim.Proc, tb *vread.Testbed, written map[string]data.Pattern, out io.Writer, fields []string) error {
	switch fields[0] {
	case "put":
		if len(fields) != 3 {
			return fmt.Errorf("usage: put <path> <sizeKB>")
		}
		kb, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return err
		}
		content := data.Pattern{Seed: uint64(len(written)) + 7, Size: kb << 10}
		if err := tb.Client.WriteFile(p, fields[1], content); err != nil {
			return err
		}
		written[fields[1]] = content
		fmt.Fprintf(out, "put %s (%d KB)\n", fields[1], kb)
	case "get":
		if len(fields) != 2 {
			return fmt.Errorf("usage: get <path>")
		}
		r, err := tb.Client.Open(p, fields[1])
		if err != nil {
			return err
		}
		defer r.Close(p)
		start := tb.C.Env.Now()
		s, err := r.ReadFull(p, r.Size())
		if err != nil {
			return err
		}
		verdict := "integrity not tracked"
		if want, ok := written[fields[1]]; ok {
			if data.Equal(s, data.NewSlice(want)) {
				verdict = "every byte verified"
			} else {
				verdict = "CORRUPTED"
			}
		}
		elapsed := tb.C.Env.Now() - start
		fmt.Fprintf(out, "get %s: %d bytes in %v (%.1f MB/s virtual), %s\n",
			fields[1], s.Len(), elapsed.Round(time.Microsecond), metrics.Throughput(s.Len(), elapsed), verdict)
	case "head":
		if len(fields) != 3 {
			return fmt.Errorf("usage: head <path> <n>")
		}
		n, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return err
		}
		r, err := tb.Client.Open(p, fields[1])
		if err != nil {
			return err
		}
		defer r.Close(p)
		s, err := r.ReadAt(p, 0, n)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "head %s: % x\n", fields[1], s.Bytes())
	case "ls":
		fmt.Fprintf(out, "datanodes: %v\n", tb.NS.DataNodes())
		paths := make([]string, 0, len(written))
		for path := range written {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			if size, ok := tb.NS.FileSize(path); ok {
				fmt.Fprintf(out, "  %-24s %d bytes\n", path, size)
			}
		}
	case "rm":
		if len(fields) != 2 {
			return fmt.Errorf("usage: rm <path>")
		}
		if err := tb.Client.DeleteFile(p, fields[1]); err != nil {
			return err
		}
		delete(written, fields[1])
		fmt.Fprintf(out, "rm %s\n", fields[1])
	case "stat":
		if len(fields) != 2 {
			return fmt.Errorf("usage: stat <path>")
		}
		blocks, err := tb.NS.GetBlockLocations(p, tb.Client.Kernel(), fields[1])
		if err != nil {
			return err
		}
		size, _ := tb.NS.FileSize(fields[1])
		fmt.Fprintf(out, "stat %s: %d bytes, %d block(s)\n", fields[1], size, len(blocks))
		for _, b := range blocks {
			fmt.Fprintf(out, "  %-10s %10d bytes on %v\n", b.BlockName(), b.Size, b.Locations)
		}
	case "placement":
		if len(fields) != 2 {
			return fmt.Errorf("usage: placement <path>")
		}
		if tb.Router == nil {
			return fmt.Errorf("placement needs a federated namespace (run with -shards > 1)")
		}
		places, err := tb.Router.PlacementOf(fields[1])
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "placement %s: shard %d of %d\n", fields[1], tb.Router.ShardOf(fields[1]), tb.Router.NumShards())
		for _, pl := range places {
			fmt.Fprintf(out, "  %-10s shard=%d ring=%016x\n", pl.Block.BlockName(), pl.Shard, pl.RingPos)
			for _, rep := range pl.Replicas {
				fmt.Fprintf(out, "    %s\n", rep)
			}
		}
	default:
		return fmt.Errorf("unknown command %q", fields[0])
	}
	return nil
}
