//go:build race

package rtree

// raceBuild scales down the tests whose size exists to cover many states,
// not many interleavings: the detector makes them tens of times slower.
const raceBuild = true
