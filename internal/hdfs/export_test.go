package hdfs

import "vread/internal/guest"

// Kernel returns the VM kernel the datanode runs in.
func (dn *DataNode) Kernel() *guest.Kernel { return dn.kernel }

// Stop simulates a datanode crash: the listener closes, so new connections
// are refused. Readers fail over to other replicas.
func (dn *DataNode) Stop() { dn.listener.Close() }

// HasBlock reports whether dn stores block id.
func HasBlock(dn *DataNode, id BlockID) bool {
	_, ok := dn.blocks[id]
	return ok
}

// StoredBlock reports the size of block id on dn and whether dn stores it.
func StoredBlock(dn *DataNode, id BlockID) (int64, bool) {
	n, ok := dn.blocks[id]
	return n, ok
}

// AcceptedConns returns how many sessions dn has accepted.
func AcceptedConns(dn *DataNode) int64 { return dn.accepted }
