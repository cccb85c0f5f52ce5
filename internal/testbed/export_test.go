package testbed

// SavedCheckpoint returns the state Checkpoint saved (nil before it),
// for the rewind tests in package testbed_test.
func (tb *Testbed) SavedCheckpoint() any { return tb.cp }

// Capture copies the world's current dynamic state the way Checkpoint
// does, without replacing the saved checkpoint.
func (tb *Testbed) Capture() any { return tb.capture() }
