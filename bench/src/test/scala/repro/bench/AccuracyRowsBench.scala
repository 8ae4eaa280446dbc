package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Figure 8: accuracy of the fixed 5K sample as the Products row count grows.
  * Paper reference point at 3M rows: p@3 = 0.942, KT = 8.1, nDCG = 0.9985.
  * Row counts run up to BENCH_SALES_ROWS; raise it to approach the paper's 3M.
  */
class AccuracyRowsBench extends SparkSpec {

  test("Figure 8: 5K-sample accuracy vs row count (Products)") {
    val rows = Experiments.fig8(spark)
    spark.catalog.clearCache()

    // accuracy stays high across sizes (paper: flat near-1 curves)
    rows.foreach { r =>
      assert(r.precisionAt3 >= 0.6, r.toString)
      assert(r.ndcg >= 0.85, r.toString)
    }
  }
}
