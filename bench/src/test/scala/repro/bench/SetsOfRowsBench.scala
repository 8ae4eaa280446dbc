package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Figure 11: top raw contribution as the number of sets-of-rows varies, for
  * query 3 (stores⋈sales) and query 7 (spotify year>1990). The paper found no
  * clear trend — the optimal n depends on the query and the attribute's
  * values — and recommends small n for readable explanations.
  */
class SetsOfRowsBench extends SparkSpec {

  test("Figure 11: contribution vs number of sets-of-rows (queries 3 and 7)") {
    val Seq(rows7, _) = Experiments.fig11.map(_(spark))

    // contributions are meaningful at every n for the planted-deviation query
    assert(rows7.forall(_.topContribution >= 0.0))
    assert(rows7.exists(_.topContribution > 0.0))
  }
}
