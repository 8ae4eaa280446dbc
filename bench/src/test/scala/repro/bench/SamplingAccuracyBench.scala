package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Figure 7: accuracy of FEDEX-SAMPLING vs exact FEDEX (ground truth) as the
  * sample size grows — precision@3 over skylines, Kendall-Tau distance and
  * nDCG over the full candidate ranking. Paper reference points: p@3 ≥ 93% at
  * 5K; KT 74.8 @50 → 21.6 @5K → 10.8 @50K; nDCG 92.6% @50 → 99.8% @5K.
  */
class SamplingAccuracyBench extends SparkSpec {

  test("Figure 7: FEDEX-SAMPLING accuracy vs sample size (Spotify + Products)") {
    val rows = Experiments.fig7(spark)
    spark.catalog.clearCache()

    val bySize = rows.map(r => r.label.toLong -> r).toMap
    // 5K sample: high precision and nDCG (paper: ≥0.93 and 0.998)
    assert(bySize(5000L).precisionAt3 >= 0.75, bySize(5000L).toString)
    assert(bySize(5000L).ndcg >= 0.9, bySize(5000L).toString)
    // accuracy improves from tiny to large samples
    assert(bySize(50000L).ndcg >= bySize(50L).ndcg - 0.02)
    assert(bySize(50000L).kendallTau <= bySize(50L).kendallTau + 1.0)
  }
}
