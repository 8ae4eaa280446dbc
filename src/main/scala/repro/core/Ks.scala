package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Two-sample Kolmogorov–Smirnov statistic (paper Eq. 1).
  *
  * The heavy work — per-value frequency counting — runs as a single Spark
  * aggregation over the tagged union of both sides; the final sup-norm over
  * the two empirical CDFs is a linear driver pass over the (bounded) set of
  * distinct keys. Numeric columns whose distinct count exceeds `maxBins` are
  * bucketised on quantile boundaries of the key-space side first.
  *
  * Bucketing bound: the binned statistic compares both CDFs only at bucket
  * boundaries, and within a bucket each CDF moves by at most the bucket's
  * share of its side. So `binned <= exact <= binned + m`, where `exact` is
  * the statistic over raw values and `m` the largest share of its side's
  * non-null rows that one bucket holds, on either side.
  */
object Ks {

  /** The default bucketisation bound `maxBins`. */
  val MaxBins = 1024

  /** Is `column` of a numeric Spark type in `df`? */
  def isNumeric(df: DataFrame, column: String): Boolean =
    df.schema(column).dataType match {
      case _: NumericType => true
      case _              => false
    }

  /** KS statistic from per-value counts. Keys compare numerically when
    * `numeric`, else lexicographically (the paper orders categorical domains
    * by their value to make the CDF well defined).
    */
  def fromCounts(a: Iterable[(String, Long)], b: Iterable[(String, Long)], numeric: Boolean): Double = {
    val am = a.groupMapReduce(_._1)(_._2)(_ + _)
    val bm = b.groupMapReduce(_._1)(_._2)(_ + _)
    val ta = am.values.sum.toDouble
    val tb = bm.values.sum.toDouble
    if (ta == 0 || tb == 0) return 0.0
    val keys   = (am.keySet ++ bm.keySet).toIndexedSeq
    val sorted = if (numeric) keys.sortBy(_.toDouble) else keys.sorted
    var ca = 0.0; var cb = 0.0; var d = 0.0
    sorted.foreach { k =>
      ca += am.getOrElse(k, 0L) / ta
      cb += bm.getOrElse(k, 0L) / tb
      val diff = math.abs(ca - cb)
      if (diff > d) d = diff
    }
    math.min(1.0, d) // guard against float accumulation pushing past 1
  }

  /** Quantile boundaries for bucketising each high-cardinality numeric
    * column of `columns`, from one aggregation of `Partition.quantiles` at
    * the `maxBins`-quantiles. Each is strictly increasing and may have fewer
    * than `maxBins - 1` cut points on skewed data.
    */
  private[core] def boundariesOf(df: DataFrame, columns: Seq[String], maxBins: Int): Map[String, Array[Double]] = {
    lazy val probs = (1 until maxBins).map(_.toDouble / maxBins)
    Partition.perColumn(df, columns)(Partition.quantiles(_, probs)) { (row, i) =>
      if (row.isNullAt(i)) Array.empty[Double] else row.getSeq[Double](i).toArray.distinct.sorted
    }
  }

  /** Index of the bucket `x` falls into for strictly increasing `bounds`
    * (bucket i covers (bounds(i-1), bounds(i)]; 0 covers (-inf, bounds(0)]).
    */
  def bucketOf(bounds: Array[Double])(x: Double): Int = {
    var lo = 0; var hi = bounds.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (x <= bounds(mid)) hi = mid else lo = mid + 1
    }
    lo
  }

  /** How a column's values map to the string keys KS counts, and whether
    * those keys compare numerically.
    */
  final case class KeySpace(key: Column => Column, numeric: Boolean)

  /** The KS key space of each of `columns` of `df`: the raw value for
    * categorical columns and numerics with at most `maxBins` distinct values,
    * a quantile-bucket index for the other numerics. `df` supplies the domain
    * (usually an input, which covers the output's values for the supported
    * ops). At most two aggregations cover every column: the
    * `Partition.profile` of the numerics whose distinct count
    * `knownDistinct` (a profile of `df`) lacks, and one `boundariesOf` pass
    * over the high-cardinality ones.
    */
  def keySpaces(df: DataFrame, columns: Seq[String], maxBins: Int,
                knownDistinct: Map[String, Long] = Map.empty): Map[String, KeySpace] = {
    val numeric  = columns.distinct.filter(isNumeric(df, _))
    val distinct = knownDistinct ++ Partition.profile(df, numeric.filterNot(knownDistinct.contains))
    val bounds   = boundariesOf(df, numeric.filter(distinct(_) > maxBins), maxBins)
    columns.map { c =>
      c -> (if (!numeric.contains(c)) KeySpace(_.cast("string"), numeric = false)
            else bounds.get(c).fold(KeySpace(_.cast("double").cast("string"), numeric = true)) { b =>
              val f = udf((x: java.lang.Double) => if (x == null) null else bucketOf(b)(x).toString)
              KeySpace(x => f(x.cast("double")), numeric = true)
            })
    }.toMap
  }

  /** KS statistic between `a[column]` and `b[column]`. `a` decides
    * type/bucketisation so both sides share one key space.
    */
  def statistic(a: DataFrame, b: DataFrame, column: String, maxBins: Int = MaxBins): Double = {
    val KeySpace(key, numeric) = keySpaces(a, Seq(column), maxBins)(column)
    val tagged = a.select(key(col(column)).as("__k"), lit(0).as("__s"))
      .unionAll(b.select(key(col(column)).as("__k"), lit(1).as("__s")))
      .where(col("__k").isNotNull)
    val cells = tagged.groupBy("__k")
      .agg(sum(when(col("__s") === 0, 1L).otherwise(0L)).as("ca"),
           sum(when(col("__s") === 1, 1L).otherwise(0L)).as("cb"))
      .collect()
    val ca = cells.map(r => r.getString(0) -> r.getLong(1))
    val cb = cells.map(r => r.getString(0) -> r.getLong(2))
    fromCounts(ca, cb, numeric)
  }
}
