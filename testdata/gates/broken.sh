gate 1 norace 'TestAlpha|TestRenamed' ./pkg/  # TestRenamed is declared nowhere
gate 1 norace 'TestAlpha' ./missing/  # no such package; TestBetaGolden is gated by no line
