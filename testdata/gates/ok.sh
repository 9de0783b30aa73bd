gate 2 race 'TestAlpha$|TestBetaGolden/sub' ./pkg/  # every name declared, the golden gated
