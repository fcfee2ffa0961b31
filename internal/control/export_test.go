package control

// Level returns the current widening exponent (0 = anchor tuning).
func (r *Retuner) Level() int { return r.widen }
