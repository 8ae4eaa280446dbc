package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Diversity interestingness (paper Eq. 2): the coefficient of variation
  * CV = s / |mean| of the aggregated values of a group-by output column.
  * Degenerate inputs (fewer than two values, zero mean) score 0 — a column
  * without dispersion is, by this measure, not interesting.
  */
object Diversity {

  /** CV of an in-memory value sequence (driver-side; used by the contribution
    * fast path where group aggregates are reconstructed per exclusion).
    */
  def cv(values: Iterable[Double]): Double = {
    val (n, mean, sd) = moments(values)
    if (n < 2 || mean == 0.0) 0.0 else sd / math.abs(mean)
  }

  /** Count, mean and sample standard deviation of the finite `values`; the
    * mean is 0 without values, the deviation 0 with fewer than two.
    */
  private[core] def moments(values: Iterable[Double]): (Int, Double, Double) = {
    val xs   = values.iterator.filterNot(v => v.isNaN || v.isInfinite).toIndexedSeq
    val n    = xs.size
    val mean = if (n == 0) 0.0 else xs.sum / n
    val ss   = xs.foldLeft(0.0)((acc, x) => acc + (x - mean) * (x - mean))
    (n, mean, if (n < 2) 0.0 else math.sqrt(ss / (n - 1)))
  }

  /** CV of a dataframe column's finite values via one Spark aggregation. */
  def cv(df: DataFrame, column: String): Double = {
    val r = df
      .select(col(column).cast("double").as("__v"))
      .where(!isnan(col("__v")) && abs(col("__v")) =!= Double.PositiveInfinity)
      .agg(avg("__v").as("m"), stddev_samp("__v").as("s"), count("__v").as("n"))
      .head()
    if (r.isNullAt(0) || r.isNullAt(1) || r.getLong(2) < 2) 0.0
    else {
      val m = r.getDouble(0)
      val s = r.getDouble(1)
      if (m == 0.0 || s.isNaN) 0.0 else s / math.abs(m)
    }
  }
}
