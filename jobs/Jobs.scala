package repro.jobs

import repro.Session
import repro.core.Fedex
import repro.data.{DataScale, Frames, Queries}
import repro.eval.Experiments

/** Explain a single query at bench scale (arg: query number 1-30, default 6).
  *
  * Example:
  *   spark-submit --class repro.jobs.ExplainQuery target/scala-2.13/repro_2.13-*.jar 6
  */
object ExplainQuery {
  def main(args: Array[String]): Unit = {
    val s   = Session.local("fedex-explain")
    val num = args.headOption.map(_.toInt).getOrElse(6)
    val q   = Queries.all(new Frames(s, DataScale.bench)).find(_.num == num)
      .getOrElse(sys.error(s"no query $num"))
    val res = Fedex.explain(q.step, Experiments.cfg)
    println(s"Query $num (${q.dataset}, ${q.kind}): ${q.sqlLike}")
    println("Column interestingness:")
    res.columnScores.toSeq.sortBy(-_._2).foreach { case (a, v) => println(f"  $a%-30s $v%.4f") }
    println("Skyline explanations:")
    res.skyline.foreach(e => println(s"  - ${e.caption}"))
    s.stop()
  }
}

/** Run one reproduced table or figure, as defined in `repro.eval.Experiments`,
  * and print the same table(s) as its bench suite:
  *
  *   RunExperiment tables23|fig3|fig5|fig7|fig8|fig9|fig10|fig11 [dataset]
  *
  * `fig3` is Figs 3/6. `fig9` and `fig10` print one panel per dataset (Bank,
  * Spotify, Products), or only the named one.
  */
object RunExperiment {
  def main(args: Array[String]): Unit = {
    def panels(fig: Map[String, Experiments.Figure[_]]) = args.lift(1).fold(fig.values.toSeq)(ds =>
      Seq(fig.getOrElse(ds, sys.error(s"unknown dataset $ds (one of ${fig.keys.mkString(", ")})"))))
    val figures: Seq[Experiments.Figure[_]] = args.headOption match {
      case Some("tables23") => Seq(Experiments.tables23)
      case Some("fig3")     => Seq(Experiments.fig3)
      case Some("fig5")     => Seq(Experiments.fig5)
      case Some("fig7")     => Seq(Experiments.fig7)
      case Some("fig8")     => Seq(Experiments.fig8)
      case Some("fig9")     => panels(Experiments.fig9)
      case Some("fig10")    => panels(Experiments.fig10)
      case Some("fig11")    => Experiments.fig11
      case other => sys.error(s"usage: RunExperiment tables23|fig3|fig5|fig7|fig8|fig9|fig10|fig11 [dataset]; got $other")
    }
    val s = Session.local(s"fedex-${args.head}")
    figures.foreach(_(s))
    s.stop()
  }
}
