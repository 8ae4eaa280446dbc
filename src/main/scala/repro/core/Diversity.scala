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

  /** CV of a dataframe column's finite values, from one aggregation of
    * their mean, sample deviation and count: the reference behind
    * `Interestingness.score`.
    */
  def cv(df: DataFrame, column: String): Double = {
    val v = col(column).cast("double")
    val finite = when(!isnan(v) && abs(v) =!= Double.PositiveInfinity, v)
    val (m, s) = (avg(finite), stddev_samp(finite))
    df.select(when(count(finite) >= 2 && m =!= 0.0 && !isnan(s), s / abs(m)).otherwise(0.0)).head().getDouble(0)
  }
}
