package a

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested()+(Box{}).Spare() != 6 {
		t.Fatal("sum")
	}
}
