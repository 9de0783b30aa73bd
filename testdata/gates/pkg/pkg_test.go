package pkg

import "testing"

func TestAlpha(t *testing.T) {}

func TestBetaGolden(t *testing.T) {
	t.Run("sub", func(t *testing.T) {})
}
