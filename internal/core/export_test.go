package core

import "vread/internal/fsim"

// Mount returns the mount table entry of datanode dn on host.
func (m *Manager) Mount(host, dn string) *fsim.HostMount { return m.mount(host, dn) }

// RingKey returns the daemon's current ring key.
func (d *Daemon) RingKey() uint64 { return d.ring.key }

// Size returns the block file size at open time.
func (v *VFD) Size() int64 { return v.size }

// DoorbellStormBurst exposes the ring.doorbellstorm burst size to the
// external tests.
const DoorbellStormBurst = doorbellStormBurst
