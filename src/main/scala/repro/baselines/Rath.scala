package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.Ks

/** One auto-extracted insight over the output dataframe. */
final case class RathInsight(kind: String, dim: String, measure: String,
                             subject: String, score: Double) {
  def caption: String = kind match {
    case "outstanding" => f"$subject is an outstanding $measure within $dim (score $score%.3f)"
    case "attribution" => f"$subject accounts for an outsized share of $measure by $dim (score $score%.3f)"
    case "trend"       => f"$measure shows a trend along $dim (score $score%.3f)"
    case _             => f"$kind insight on $measure by $dim (score $score%.3f)"
  }
}

/** RATH / top-k-insight-style automatic insight extraction (baseline [72],
  * Tang et al. SIGMOD'17 as used by the Kanaries RATH tool). It looks only at
  * the output dataframe (it is step-agnostic — the property the paper
  * criticises), enumerates every (dimension, measure) subspace, and scores
  * three insight types with one unified [0,1] score: outstanding-№1
  * (z-score of the top group), attribution (dominant share), and trend
  * (|Pearson r| along an ordinal dimension). All subspace aggregates are
  * collected to the driver, mirroring the reference implementation's memory
  * appetite on large data.
  */
object Rath {

  def topInsights(df: DataFrame, k: Int = 3): Seq[RathInsight] = {
    val dims = SeeDb.dimensions(df, maxDistinct = 100, maxDims = 12)
    val ms   = SeeDb.measures(df, maxMeasures = 12)
    val insights = dims.flatMap { d =>
      val exprs = ms.map(m => avg(col(m).cast("double")).as(s"avg__$m")) :+ count(lit(1)).as("__cnt")
      val rows  = df.groupBy(col(d).cast("string").as("__g")).agg(exprs.head, exprs.tail: _*).collect()
      val groups = rows.map(r => if (r.isNullAt(0)) "∅" else r.getString(0))
      val counts = rows.map(_.getLong(ms.size + 1).toDouble)
      val numericDim = Ks.isNumeric(df, d) || groups.forall(g => scala.util.Try(g.toDouble).isSuccess)

      val perMeasure = ms.zipWithIndex.flatMap { case (m, mi) =>
        val vals = rows.map(r => if (r.isNullAt(mi + 1)) Double.NaN else r.get(mi + 1).toString.toDouble)
        val ok   = vals.zip(groups).filterNot(_._1.isNaN)
        if (ok.length < 3) Seq.empty
        else {
          val xs = ok.map(_._1)
          val mu = xs.sum / xs.length
          val sd = math.sqrt(xs.map(v => (v - mu) * (v - mu)).sum / (xs.length - 1))
          val out =
            if (sd == 0) None
            else {
              val (v, g) = ok.maxBy { case (v, _) => math.abs(v - mu) }
              val z      = math.abs(v - mu) / sd
              Some(RathInsight("outstanding", d, m, s"$d=$g", 1 - math.exp(-z / 2)))
            }
          val trend =
            if (!numericDim) None
            else {
              val pts = ok.flatMap { case (v, g) => scala.util.Try(g.toDouble).toOption.map(_ -> v) }
              if (pts.length < 3) None
              else Some(RathInsight("trend", d, m, d, math.abs(pearson(pts.map(_._1).toSeq, pts.map(_._2).toSeq))))
            }
          Seq(out, trend).flatten
        }
      }
      val attribution = {
        val tot = counts.sum
        if (tot == 0 || groups.length < 2) Seq.empty
        else {
          val (c, g) = counts.zip(groups).maxBy(_._1)
          val share  = c / tot
          val uniform = 1.0 / groups.length
          Seq(RathInsight("attribution", d, "count", s"$d=$g",
            math.max(0.0, (share - uniform) / (1 - uniform))))
        }
      }
      perMeasure ++ attribution
    }
    insights.sortBy(i => (-i.score, i.kind, i.dim, i.measure)).take(k)
  }

  private def pearson(x: Seq[Double], y: Seq[Double]): Double = {
    val n  = x.length
    val mx = x.sum / n; val my = y.sum / n
    val cov = x.zip(y).map { case (a, b) => (a - mx) * (b - my) }.sum
    val sx  = math.sqrt(x.map(a => (a - mx) * (a - mx)).sum)
    val sy  = math.sqrt(y.map(b => (b - my) * (b - my)).sum)
    if (sx == 0 || sy == 0) 0.0 else cov / (sx * sy)
  }
}
