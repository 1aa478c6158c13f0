package cluster

import (
	"testing"

	"speed/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
