"""Keep pytest from collecting library objects whose names look like tests."""
import grouptest.harness
import grouptest.model

grouptest.model.TestOracle.__test__ = False
grouptest.harness.TrialResult.__test__ = False
