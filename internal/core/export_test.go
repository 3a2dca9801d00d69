package core

// DoorbellStormBurst exposes the ring.doorbellstorm burst size to the
// external tests.
const DoorbellStormBurst = doorbellStormBurst
