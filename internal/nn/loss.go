package nn

import "math"

// HuberLoss returns the Huber (smooth-L1) loss with threshold delta for
// residual r = pred - target, together with its derivative w.r.t. pred.
// DQN-style training clips the TD-error gradient exactly this way. The
// products are converted to float64, so a caller that adds them to
// something, HuberLoss inlined, cannot fuse the two.
func HuberLoss(pred, target, delta float64) (loss, grad float64) {
	r := pred - target
	a := math.Abs(r)
	if a <= delta {
		return float64(0.5 * r * r), r
	}
	return float64(delta * (a - float64(0.5*delta))), float64(delta * sign(r))
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	if x > 0 {
		return 1
	}
	return 0
}
