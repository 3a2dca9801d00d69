package surface

import "testing"

func TestTestOnly(t *testing.T) { TestOnly() }
