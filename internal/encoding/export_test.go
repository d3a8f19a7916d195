package encoding

// Test helpers of this package that ans_golden_test.go and
// decode_fuzz_test.go, which must live in package encoding_test to import
// internal/compress, use too.
var (
	KFACStreams = kfacStreams
	TwoSymbols  = twoSymbols
	ANSLayout   = ansLayout
	FuzzCodecs  = fuzzCodecs
	CodecSeeds  = codecSeeds
	CheckDecode = checkDecode
)
