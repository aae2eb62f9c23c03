package tree

// The two parsers behind UnmarshalForest and the shared test inputs, for
// the external differential tests (which need packages that import tree).
var (
	ScanForest   = scanForest
	DecodeForest = decodeForest
	CodecSeeds   = codecSeeds
)

// NearMissInputs returns the inputs of TestUnmarshalNearMisses.
func NearMissInputs() []string {
	var in []string
	for _, c := range nearMisses {
		in = append(in, c.in)
	}
	return in
}
