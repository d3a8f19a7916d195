package collective

// ringStepAVX is the untraced pass of ringStep over links [0, len(busy)),
// four links a register: len(busy) is a positive multiple of four and clk
// holds len(busy)+1 clocks, the last one read and not written. It reads
// and writes whatever the slices point at: ringStep has sliced them.
//
//go:noescape
func ringStepAVX(clk, busy, alpha, beta, size []float64)

// ringStepUniformAVX is the untraced pass of ringStepUniform over links
// [0, len(busy)), four links a register, on the same terms as ringStepAVX:
// dur holds the links' durations in place of α, β and size.
//
//go:noescape
func ringStepUniformAVX(clk, busy, dur []float64)
