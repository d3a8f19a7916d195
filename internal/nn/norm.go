package nn

import "math"

// normalize writes the layer norm of every dim-wide block of x into out,
// followed by the per-feature affine (gamma, beta). Training passes norm
// and stds to keep each block's normalized values and standard deviation
// for normalizeBackward; evaluation passes nil and keeps nothing.
func normalize(x, out, norm, stds []float64, dim int, eps float64, gamma, beta *Param) {
	g, b := gamma.W.Data, beta.W.Data
	for r := 0; r < len(x)/dim; r++ {
		blk := x[r*dim : (r+1)*dim]
		var mean float64
		for _, v := range blk {
			mean += v
		}
		mean /= float64(dim)
		var varSum float64
		for _, v := range blk {
			d := v - mean
			varSum += float64(d * d)
		}
		std := math.Sqrt(varSum/float64(dim) + eps)
		dst := out[r*dim : (r+1)*dim]
		if norm == nil {
			for j, v := range blk {
				dst[j] = float64((v-mean)/std*g[j]) + b[j]
			}
			continue
		}
		stds[r] = std
		nrm := norm[r*dim : (r+1)*dim]
		for j, v := range blk {
			nv := (v - mean) / std
			nrm[j] = nv
			dst[j] = float64(nv*g[j]) + b[j]
		}
	}
}

// normalizeBackward is normalize's backward pass: it accumulates gamma's
// and beta's gradients and writes the input gradient into gradIn.
func normalizeBackward(gradOut, gradIn, norm, stds []float64, dim int, gamma, beta *Param) {
	n := float64(dim)
	g := gamma.W.Data
	for r := 0; r < len(gradOut)/dim; r++ {
		gRow := gradOut[r*dim : (r+1)*dim]
		nRow := norm[r*dim : (r+1)*dim]
		// Parameter gradients.
		for j, gv := range gRow {
			gamma.Grad.Data[j] += float64(gv * nRow[j])
			beta.Grad.Data[j] += gv
		}
		// Input gradient: standard layer-norm backward.
		var sumG, sumGN float64
		for j, gv := range gRow {
			gh := float64(gv * g[j])
			sumG += gh
			sumGN += float64(gh * nRow[j])
		}
		dst := gradIn[r*dim : (r+1)*dim]
		for j, gv := range gRow {
			gh := float64(gv * g[j])
			dst[j] = (gh - sumG/n - nRow[j]*sumGN/n) / stds[r]
		}
	}
}
