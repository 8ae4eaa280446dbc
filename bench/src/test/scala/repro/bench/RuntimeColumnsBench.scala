package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Figure 9: runtime vs number of columns for FEDEX-SAMPLING(5K) and the
  * SEEDB / RATH baselines, per dataset, averaged over its filter/join
  * queries. Paper reference points: Bank@20 cols 0.23s/0.54s/0.52s
  * (FEDEX-S/SEEDB/RATH); Spotify@20 cols 2.27s/0.75s/2.9s; Products@33 cols
  * 13.3s/25.1s/RATH-OOM. Our RATH is Spark-backed, so instead of the paper's
  * out-of-memory failure it simply slows down — noted in EXPERIMENTS.md.
  */
class RuntimeColumnsBench extends SparkSpec {

  test("Figure 9a: runtime vs columns — Credit Card Customers") {
    val rows = Experiments.fig9("Bank")(spark)
    assert(rows.last.fedexSampling < 120)
    assert(rows.map(_.fedexSampling).sliding(2).forall(w => w.last > w.head * 0.2)) // roughly growing
  }

  test("Figure 9b: runtime vs columns — Spotify") {
    val rows = Experiments.fig9("Spotify")(spark)
    assert(rows.last.fedexSampling < 300)
  }

  test("Figure 9c: runtime vs columns — Products and Sales") {
    val rows = Experiments.fig9("Products")(spark)
    assert(rows.last.fedexSampling < 600)
  }
}
