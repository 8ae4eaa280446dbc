package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Tables 2 & 3: all 30 evaluation queries through FEDEX-SAMPLING (5K), one
  * row per query — most interesting column, its score, skyline size, top
  * caption, wall time. Reproduces the Example 3.2/3.10-style numbers.
  */
class QueryTablesBench extends SparkSpec {

  test("Tables 2 and 3: FEDEX explanations for all 30 queries") {
    val rows = Experiments.tables23(spark)

    assert(rows.size === 30)
    // the planted patterns must surface: q6's interestingness peaks on the
    // year/decade/popularity family (Example 3.2: decade scored highest)
    val q6 = rows.find(_.num == 6).get
    assert(Seq("decade", "year", "popularity").contains(q6.topColumn), q6.topColumn)
    assert(q6.topScore > 0.3)
    // most queries produce at least one explanation
    assert(rows.count(_.skylineSize > 0) >= 24, rows.count(_.skylineSize > 0).toString)
    // interactive speed at bench scale (paper: seconds)
    assert(rows.map(_.seconds).sum / 30 < 60.0)
  }
}
