package encoding

// Test helpers of this package that ans_golden_test.go, which must live in
// package encoding_test to import internal/compress, uses too.
var (
	KFACStreams = kfacStreams
	TwoSymbols  = twoSymbols
	ANSLayout   = ansLayout
)
