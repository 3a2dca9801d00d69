package main

import (
	"errors"
	"strings"
	"testing"

	"vread/internal/hdfs"
)

// TestReadmeSessions: README's two sessions print these bytes, byte for
// byte (the virtual clock makes every timing deterministic).
func TestReadmeSessions(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{
			[]string{"-vread", "put", "/a", "2048", ";", "stat", "/a", ";", "get", "/a", ";", "ls"},
			`put /a (2048 KB)
stat /a: 2097152 bytes, 1 block(s)
  blk_1         2097152 bytes on [dn1]
get /a: 2097152 bytes in 5.899ms (355.5 MB/s virtual), every byte verified
datanodes: [dn1 dn2]
  /a                       2097152 bytes
(virtual time elapsed: 10.041ms)
`,
		},
		{
			[]string{"-shards", "4", "-replication", "2", "put", "/a", "2048", ";", "placement", "/a"},
			`put /a (2048 KB)
placement /a: shard 1 of 4
  blk_2      shard=1 ring=a27c3b5cef74520a
    dn1@host1 rack=r0 domain=d0
    dn2@host2 rack=r1 domain=d1
(virtual time elapsed: 4.779ms)
`,
		},
	} {
		var out strings.Builder
		if err := run(tc.args, &out); err != nil {
			t.Fatalf("run(%q): %v", tc.args, err)
		}
		if out.String() != tc.want {
			t.Errorf("run(%q) printed\n%s\nwant\n%s", tc.args, out.String(), tc.want)
		}
	}
}

// TestRunRejectsOutOfRange: -replication -1 used to panic inside the
// simulation (slice bounds out of range [:-1]) and -shards 65 ran although a
// scenario file with "shards": 65 is refused. Both must now fail before the
// testbed boots, with the flag named.
func TestRunRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-replication", "-1"}, "-replication"},
		{[]string{"-shards", "65"}, "-shards"},
	} {
		var out strings.Builder
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("run(%q) = %v, want an error naming %s", tc.args, err, tc.flag)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed %q", tc.args, out.String())
		}
	}
}

// TestRunPlacesReplicas: -replication 2 over four shards writes each block
// to both of the testbed's fault domains.
func TestRunPlacesReplicas(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-replication", "2", "-shards", "4", "put", "/r", "64", ";", "placement", "/r"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"placement /r: shard", "domain=d0", "domain=d1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("placement output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestRunRefusesReplicationAboveDatanodes: the two-datanode testbed used to
// write two replicas of a block asked for 64 and report nothing. The write
// now fails with hdfs.ErrReplication, so the command exits 1.
func TestRunRefusesReplicationAboveDatanodes(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-replication", "64", "put", "/a", "64"}, &out)
	if !errors.Is(err, hdfs.ErrReplication) {
		t.Fatalf("run(-replication 64 put) = %v, want hdfs.ErrReplication", err)
	}
	if out.Len() != 0 {
		t.Errorf("run(-replication 64 put) printed %q", out.String())
	}
}
