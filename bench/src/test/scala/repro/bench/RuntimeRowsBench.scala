package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Figure 10: runtime vs number of rows, FEDEX (exact) vs FEDEX-SAMPLING(5K)
  * vs SEEDB vs RATH, per dataset, averaged over its filter/join queries.
  * Paper reference points: Bank@10K 0.23s/0.63s/0.81s (FEDEX-S/SEEDB/RATH);
  * Spotify@174K 1.81s/0.7s/6.4s; Products@10M 62.4s FEDEX-S vs 154.9s SEEDB,
  * RATH OOM.
  */
class RuntimeRowsBench extends SparkSpec {

  test("Figure 10a: runtime vs rows — Credit Card Customers") {
    val rows = Experiments.fig10("Bank")(spark)
    spark.catalog.clearCache()
    assert(rows.forall(_.fedexSampling < 120))
  }

  test("Figure 10b: runtime vs rows — Spotify") {
    val rows = Experiments.fig10("Spotify")(spark)
    spark.catalog.clearCache()
    // sampling beats (or at worst matches) exact FEDEX at the largest size
    assert(rows.last.fedexSampling <= rows.last.fedex * 1.5)
  }

  test("Figure 10c: runtime vs rows — Products and Sales") {
    // exact FEDEX on the largest products view is the expensive point — still run it
    val rows = Experiments.fig10("Products")(spark)
    spark.catalog.clearCache()
    assert(rows.forall(_.fedexSampling < 900))
  }
}
